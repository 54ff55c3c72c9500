// Tests for graph serialization (edge list, DIMACS, DOT).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"

namespace slumber::io {
namespace {

TEST(IoTest, EdgeListRoundTrip) {
  const Graph g = gen::gnp_sharded_csr(40, 0.2, 11);
  const Graph back = from_string(to_string(g));
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(IoTest, EdgeListEmptyGraph) {
  const Graph g = gen::empty(5);
  const Graph back = from_string(to_string(g));
  EXPECT_EQ(back.num_vertices(), 5u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST(IoTest, EdgeListRejectsMissingHeader) {
  std::istringstream in("");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(IoTest, EdgeListRejectsTruncated) {
  std::istringstream in("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(IoTest, DimacsRoundTrip) {
  const Graph g = gen::gnp_sharded_csr(30, 0.3, 13);
  std::ostringstream out;
  write_dimacs(out, g);
  std::istringstream in(out.str());
  const Graph back = read_dimacs(in);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(IoTest, DimacsAllowsComments) {
  std::istringstream in("c a comment\np edge 3 1\nc another\ne 1 2\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(IoTest, DimacsRejectsBadHeader) {
  std::istringstream in("p graph 3 1\ne 1 2\n");
  EXPECT_THROW(read_dimacs(in), std::runtime_error);
}

TEST(IoTest, DimacsRejectsEdgeBeforeHeader) {
  std::istringstream in("e 1 2\n");
  EXPECT_THROW(read_dimacs(in), std::runtime_error);
}

TEST(IoTest, DimacsRejectsZeroVertex) {
  std::istringstream in("p edge 3 1\ne 0 2\n");
  EXPECT_THROW(read_dimacs(in), std::runtime_error);
}

// Malformed numbers. Every case must throw std::runtime_error (the
// io.h contract), never narrow a value past VertexId into an in-range
// id, and never reach std::bad_alloc or std::length_error.
void ExpectEdgeListRejects(const std::string& text) {
  std::istringstream in(text);
  EXPECT_THROW(read_edge_list(in), std::runtime_error) << text;
}

void ExpectDimacsRejects(const std::string& text) {
  std::istringstream in(text);
  EXPECT_THROW(read_dimacs(in), std::runtime_error) << text;
}

TEST(IoTest, EdgeListRejectsVertexCountPastVertexId) {
  // 2^32 + 2 would narrow to n = 2.
  ExpectEdgeListRejects("4294967298 0\n");
}

TEST(IoTest, EdgeListRejectsEndpointPastVertexId) {
  // 2^32 + 2 would narrow to vertex 2, in range for n = 3.
  ExpectEdgeListRejects("3 1\n0 4294967298\n");
}

TEST(IoTest, EdgeListRejectsEndpointOutOfRange) {
  ExpectEdgeListRejects("3 1\n0 3\n");
  ExpectEdgeListRejects("0 1\n0 0\n");
}

TEST(IoTest, EdgeListRejectsSelfLoop) {
  ExpectEdgeListRejects("3 1\n1 1\n");
}

TEST(IoTest, EdgeListRejectsNegativeNumbers) {
  // The unsigned extractor would wrap "-1" to 2^64 - 1.
  ExpectEdgeListRejects("-1 0\n");
  ExpectEdgeListRejects("3 -1\n");
  ExpectEdgeListRejects("3 1\n0 -1\n");
}

TEST(IoTest, EdgeListRejectsNonNumericTokens) {
  ExpectEdgeListRejects("3x 1\n0 1\n");
  ExpectEdgeListRejects("3 1\n0 +1\n");
  ExpectEdgeListRejects("3 18446744073709551616\n0 1\n");  // 2^64
}

TEST(IoTest, EdgeListRejectsHugeEdgeCount) {
  // Reserving m up front threw std::length_error and std::bad_alloc.
  ExpectEdgeListRejects("3 18446744073709551615\n0 1\n");
  ExpectEdgeListRejects("3 4000000000000\n0 1\n");
}

TEST(IoTest, DimacsRejectsVertexCountPastVertexId) {
  // 2^32 + 3 would narrow to n = 3.
  ExpectDimacsRejects("p edge 4294967299 1\ne 1 2\n");
}

TEST(IoTest, DimacsRejectsEndpointPastVertexId) {
  // 2^32 + 3 would narrow to 1-based vertex 3, in range for n = 3.
  ExpectDimacsRejects("p edge 3 1\ne 1 4294967299\n");
}

TEST(IoTest, DimacsRejectsEndpointOutOfRange) {
  ExpectDimacsRejects("p edge 3 1\ne 1 4\n");
  ExpectDimacsRejects("p edge 3 1\ne 2 2\n");
}

TEST(IoTest, DimacsRejectsNegativeNumbers) {
  ExpectDimacsRejects("p edge -1 0\n");
  ExpectDimacsRejects("p edge 3 -1\n");
  ExpectDimacsRejects("p edge 3 1\ne -1 2\n");
}

TEST(IoTest, DimacsRejectsHugeEdgeCount) {
  ExpectDimacsRejects("p edge 3 18446744073709551615\ne 1 2\n");
  ExpectDimacsRejects("p edge 3 4000000000000\ne 1 2\n");
}

TEST(IoTest, DimacsRejectsEdgeCountMismatch) {
  ExpectDimacsRejects("p edge 3 2\ne 1 2\n");
  ExpectDimacsRejects("p edge 3 1\ne 1 2\ne 2 3\n");
}

TEST(IoTest, DimacsRejectsSecondProblemLine) {
  // A second header silently changed n.
  ExpectDimacsRejects("p edge 3 1\ne 1 2\np edge 2 1\n");
  ExpectDimacsRejects("p edge 3 0\np edge 5 0\n");
}

TEST(IoTest, ReaderErrorsNameTheReaderAndToken) {
  std::istringstream in("3 1\n0 4294967298\n");
  try {
    read_edge_list(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("read_edge_list"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967298"), std::string::npos) << what;
  }
}

TEST(IoTest, DotContainsHighlights) {
  const Graph g = gen::path(3);
  const std::vector<VertexId> mis = {0, 2};
  std::ostringstream out;
  write_dot(out, g, mis);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("2 [style=filled"), std::string::npos);
  EXPECT_EQ(dot.find("1 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

}  // namespace
}  // namespace slumber::io
