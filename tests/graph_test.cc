// Unit tests for the CSR graph substrate.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algos/edge_coloring.h"
#include "algos/matching.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/transforms.h"
#include "util/alloc.h"
#include "util/rng.h"

namespace slumber {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

// Every way to build the 0-vertex graph holds the one offset {0}.
TEST(GraphTest, DefaultGraphIsTheEmptyCsr) {
  const Graph g;
  EXPECT_TRUE(g.same_csr(Graph(0, {})));
  EXPECT_TRUE(g.same_csr(Graph::from_csr(0, {0}, {})));
  EXPECT_TRUE(Graph(0, {}).same_csr(g));
  EXPECT_EQ(g.adjacency_offset(0), 0u);
  EXPECT_EQ(g.degree_sum(), 0u);
}

TEST(GraphTest, TriangleBasics) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.is_isolated(0));
}

TEST(GraphTest, NeighborsSortedAndPortsConsistent) {
  Graph g(5, {{2, 0}, {2, 4}, {2, 1}, {2, 3}});
  auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
  EXPECT_EQ(nbrs[3], 4u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    const VertexId u = g.neighbor(2, p);
    EXPECT_EQ(g.port_to(2, u), static_cast<std::int64_t>(p));
    // The reverse port leads back.
    const auto back = g.port_to(u, 2);
    ASSERT_GE(back, 0);
    EXPECT_EQ(g.neighbor(u, static_cast<std::uint32_t>(back)), 2u);
  }
}

TEST(GraphTest, PortToMissingEdge) {
  Graph g(3, {{0, 1}});
  EXPECT_EQ(g.port_to(0, 2), -1);
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphTest, DuplicateEdgesMerged) {
  Graph g(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphTest, SelfLoopRejected) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(GraphTest, OutOfRangeEndpointRejected) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
}

TEST(GraphTest, EdgesNormalizedAndSorted) {
  Graph g(4, {{3, 2}, {1, 0}, {2, 0}});
  const auto& edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 3}));
}

TEST(GraphTest, DegreeSumTwiceEdges) {
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_EQ(g.degree_sum(), 2 * g.num_edges());
}

TEST(GraphTest, InducedSubgraph) {
  // Path 0-1-2-3-4, induce {0, 2, 3}: keeps only edge {2,3}.
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<VertexId> keep = {0, 2, 3};
  auto [sub, mapping] = g.induced(keep);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_EQ(mapping, keep);
  EXPECT_TRUE(sub.has_edge(1, 2));  // new ids of 2 and 3
  EXPECT_TRUE(sub.is_isolated(0));  // old 0
}

TEST(GraphTest, InducedDuplicateVertexRejected) {
  Graph g(3, {{0, 1}});
  const std::vector<VertexId> dup = {0, 0};
  EXPECT_THROW(g.induced(dup), std::invalid_argument);
}

TEST(GraphTest, LineGraphOfTriangleIsTriangle) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  Graph line = g.line_graph();
  EXPECT_EQ(line.num_vertices(), 3u);
  EXPECT_EQ(line.num_edges(), 3u);
}

TEST(GraphTest, LineGraphOfStar) {
  // K_{1,4}: line graph is K_4.
  Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Graph line = g.line_graph();
  EXPECT_EQ(line.num_vertices(), 4u);
  EXPECT_EQ(line.num_edges(), 6u);
}

TEST(GraphTest, LineGraphOfPath) {
  // P_4 (3 edges): line graph is P_3 (2 edges).
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph line = g.line_graph();
  EXPECT_EQ(line.num_vertices(), 3u);
  EXPECT_EQ(line.num_edges(), 2u);
}

TEST(GraphTest, SummaryString) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.summary(), "n=3 m=2 maxdeg=2");
}

// The CSR is a graph's only stored form: a from_csr twin of an
// edge-built graph derives the same edge list, transforms and
// reductions from it.
TEST(GraphTest, FromCsrTwinMatchesEdgeBuiltGraph) {
  const Graph a(1500, gen::gnp_avg_degree_sharded_csr(1500, 8.0, 3).edges());
  util::PodVector<CsrOffset> offsets{0};
  util::PodVector<VertexId> adjacency;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto nbrs = a.neighbors(v);
    adjacency.insert(adjacency.end(), nbrs.begin(), nbrs.end());
    offsets.push_back(adjacency.size());
  }
  const Graph b = Graph::from_csr(a.num_vertices(), std::move(offsets),
                                  std::move(adjacency));
  ASSERT_TRUE(b.same_csr(a));
  EXPECT_EQ(b.edges(), a.edges());

  std::vector<VertexId> every_other;
  for (VertexId v = 0; v < a.num_vertices(); v += 2) every_other.push_back(v);
  std::vector<VertexId> shuffled(a.num_vertices());
  std::iota(shuffled.begin(), shuffled.end(), VertexId{0});
  Rng(5).shuffle(shuffled);
  shuffled.resize(900);
  for (const auto& subset : {every_other, shuffled}) {
    const auto [sub_a, map_a] = a.induced(subset);
    const auto [sub_b, map_b] = b.induced(subset);
    EXPECT_GT(sub_a.num_edges(), 0u);
    EXPECT_TRUE(sub_b.same_csr(sub_a));
    EXPECT_EQ(map_b, map_a);
  }
  EXPECT_TRUE(b.line_graph().same_csr(a.line_graph()));
  EXPECT_TRUE(power(b, 1).same_csr(power(a, 1)));
  EXPECT_TRUE(power(b, 2).same_csr(power(a, 2)));
  EXPECT_TRUE(subdivision(b).same_csr(subdivision(a)));
  EXPECT_TRUE(mycielski(b).same_csr(mycielski(a)));
  const Graph parts_a[] = {a, a};
  const Graph parts_b[] = {b, b};
  EXPECT_TRUE(disjoint_union(parts_b).same_csr(disjoint_union(parts_a)));

  const auto matching_a =
      algos::maximal_matching_via_mis(a, 3, algos::MisEngine::kSleeping);
  const auto matching_b =
      algos::maximal_matching_via_mis(b, 3, algos::MisEngine::kSleeping);
  EXPECT_EQ(matching_b.matched_edges, matching_a.matched_edges);
  EXPECT_TRUE(algos::is_maximal_matching(b, matching_b.matched_edges));
  const auto coloring_a = algos::edge_coloring_via_line_graph(a, 3);
  const auto coloring_b = algos::edge_coloring_via_line_graph(b, 3);
  EXPECT_EQ(coloring_b.colors, coloring_a.colors);
  EXPECT_TRUE(algos::check_edge_coloring(b, coloring_b.colors));
  EXPECT_EQ(io::to_string(b), io::to_string(a));
}

}  // namespace
}  // namespace slumber
