// Tests for maximal matching via MIS on the line graph.
#include <gtest/gtest.h>

#include "algos/matching.h"
#include "graph/generators.h"

namespace slumber::algos {
namespace {

TEST(MatchingTest, ValidOnPath) {
  const Graph g = gen::path(10);
  const auto result = maximal_matching_via_mis(g, 3, MisEngine::kSleeping);
  EXPECT_TRUE(is_maximal_matching(g, result.matched_edges));
  EXPECT_GE(result.matched_edges.size(), 3u);  // >= ceil((n-1)/3) for paths
}

TEST(MatchingTest, AllEnginesProduceMaximalMatchings) {
  for (MisEngine engine :
       {MisEngine::kSleeping, MisEngine::kFastSleeping, MisEngine::kLubyA,
        MisEngine::kLubyB, MisEngine::kGreedy, MisEngine::kGhaffari}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(40, 4.0, seed);
      const auto result = maximal_matching_via_mis(g, seed * 11, engine);
      EXPECT_TRUE(is_maximal_matching(g, result.matched_edges))
          << static_cast<int>(engine) << " seed " << seed;
    }
  }
}

TEST(MatchingTest, CompleteGraphPerfectMatching) {
  const Graph g = gen::complete(8);
  const auto result = maximal_matching_via_mis(g, 5, MisEngine::kGreedy);
  // Maximal matchings of K_8 are perfect (4 edges): any 3-edge matching
  // leaves two uncovered vertices that are adjacent.
  EXPECT_EQ(result.matched_edges.size(), 4u);
}

TEST(MatchingTest, StarMatchesExactlyOneEdge) {
  const Graph g = gen::star(9);
  const auto result = maximal_matching_via_mis(g, 2, MisEngine::kLubyA);
  EXPECT_EQ(result.matched_edges.size(), 1u);
}

TEST(MatchingTest, EmptyGraphEmptyMatching) {
  const Graph g = gen::empty(5);
  const auto result = maximal_matching_via_mis(g, 1, MisEngine::kSleeping);
  EXPECT_TRUE(result.matched_edges.empty());
  EXPECT_TRUE(is_maximal_matching(g, result.matched_edges));
}

TEST(MatchingTest, VerifierRejectsNonMatching) {
  const Graph g = gen::path(4);  // edges: {0,1}=0, {1,2}=1, {2,3}=2
  EXPECT_FALSE(is_maximal_matching(g, {0, 1}));  // share vertex 1
  EXPECT_FALSE(is_maximal_matching(g, {0, 7}));  // 7 is not an edge id
}

TEST(MatchingTest, VerifierRejectsNonMaximal) {
  const Graph g = gen::path(5);  // edges 0..3
  EXPECT_FALSE(is_maximal_matching(g, {0}));  // edge {3,4} still free
  EXPECT_TRUE(is_maximal_matching(g, {0, 2}));
}

TEST(MatchingTest, LineGraphMetricsPlausible) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(30, 4.0, 4);
  const auto result = maximal_matching_via_mis(g, 8, MisEngine::kFastSleeping);
  EXPECT_EQ(result.line_graph_metrics.node.size(), g.num_edges());
  EXPECT_TRUE(is_maximal_matching(g, result.matched_edges));
}

}  // namespace
}  // namespace slumber::algos
