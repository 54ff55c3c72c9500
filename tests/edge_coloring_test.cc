// Tests for (2*Delta - 1)-edge-coloring via the line-graph reduction.
#include <gtest/gtest.h>

#include <tuple>

#include "algos/edge_coloring.h"
#include "graph/generators.h"

namespace slumber::algos {
namespace {

TEST(EdgeColoringTest, EmptyGraph) {
  Graph g = gen::empty(5);
  auto result = edge_coloring_via_line_graph(g, 1);
  EXPECT_TRUE(result.colors.empty());
  EXPECT_EQ(result.colors_used, 0u);
  EXPECT_TRUE(check_edge_coloring(g, result.colors));
}

TEST(EdgeColoringTest, SingleEdge) {
  Graph g(2, {{0, 1}});
  auto result = edge_coloring_via_line_graph(g, 1);
  ASSERT_EQ(result.colors.size(), 1u);
  EXPECT_EQ(result.colors[0], 0);  // palette of an isolated L-vertex is {0}
  EXPECT_TRUE(check_edge_coloring(g, result.colors));
}

TEST(EdgeColoringTest, StarNeedsDegreeColors) {
  // All star edges share the hub: every edge needs a distinct color.
  Graph g = gen::star(8);
  auto result = edge_coloring_via_line_graph(g, 7);
  EXPECT_TRUE(check_edge_coloring(g, result.colors));
  EXPECT_EQ(result.colors_used, 7u);
}

TEST(EdgeColoringTest, CycleUsesAtMostThree) {
  // 2*Delta - 1 = 3 for a cycle.
  Graph g = gen::cycle(9);
  auto result = edge_coloring_via_line_graph(g, 3);
  EXPECT_TRUE(check_edge_coloring(g, result.colors));
  EXPECT_LE(result.colors_used, 3u);
}

TEST(EdgeColoringTest, CheckerRejectsClashes) {
  Graph g = gen::path(3);  // edges {0,1} and {1,2} share vertex 1
  EXPECT_FALSE(check_edge_coloring(g, {0, 0}));
  EXPECT_TRUE(check_edge_coloring(g, {0, 1}));
  EXPECT_FALSE(check_edge_coloring(g, {0}));        // wrong size
  EXPECT_FALSE(check_edge_coloring(g, {0, -1}));    // uncolored
  EXPECT_FALSE(check_edge_coloring(g, {0, 3}));     // out of palette
}

struct EdgeColoringSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EdgeColoringSweep, ProperOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  Graph g =
      gen::gnp_avg_degree_sharded_csr(static_cast<VertexId>(n), 6.0, seed);
  auto result = edge_coloring_via_line_graph(g, seed * 7 + 1);
  EXPECT_TRUE(check_edge_coloring(g, result.colors)) << g.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EdgeColoringSweep,
    ::testing::Combine(::testing::Values(16, 48, 128),
                       ::testing::Values(1u, 2u, 3u, 4u)));

struct EdgeColoringFamilies : public ::testing::TestWithParam<int> {};

TEST_P(EdgeColoringFamilies, ProperOnStructuredFamilies) {
  const int which = GetParam();
  Graph g;
  switch (which) {
    case 0: g = gen::complete(9); break;
    case 1: g = gen::grid(5, 6); break;
    case 2: g = gen::hypercube(4); break;
    case 3: g = gen::complete_bipartite(4, 7); break;
    case 4: g = gen::lollipop(20, 8); break;
    default: g = gen::binary_tree(31); break;
  }
  auto result = edge_coloring_via_line_graph(g, 42 + which);
  EXPECT_TRUE(check_edge_coloring(g, result.colors)) << g.summary();
}

INSTANTIATE_TEST_SUITE_P(Families, EdgeColoringFamilies,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace slumber::algos
