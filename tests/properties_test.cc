// Tests for structural graph properties.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/properties.h"

namespace slumber {
namespace {

TEST(PropertiesTest, ComponentsOfCliqueChain) {
  const Graph g = gen::clique_chain(12, 4);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.component_of[0], c.component_of[3]);
  EXPECT_NE(c.component_of[0], c.component_of[4]);
}

TEST(PropertiesTest, ConnectedDetection) {
  EXPECT_TRUE(is_connected(gen::cycle(9)));
  EXPECT_TRUE(is_connected(gen::empty(0)));
  EXPECT_FALSE(is_connected(gen::empty(2)));
}

TEST(PropertiesTest, BfsDistancesOnPath) {
  const Graph g = gen::path(6);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(dist[v], static_cast<std::int64_t>(v));
  }
}

TEST(PropertiesTest, BfsUnreachableIsMinusOne) {
  const Graph g = gen::empty(3);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], -1);
}

TEST(PropertiesTest, DiameterKnownGraphs) {
  EXPECT_EQ(diameter(gen::path(7)), 6);
  EXPECT_EQ(diameter(gen::cycle(8)), 4);
  EXPECT_EQ(diameter(gen::complete(5)), 1);
  EXPECT_EQ(diameter(gen::star(9)), 2);
  EXPECT_EQ(diameter(gen::empty(0)), -1);
}

TEST(PropertiesTest, EccentricityCenterOfPath) {
  const Graph g = gen::path(7);
  EXPECT_EQ(eccentricity(g, 3), 3);
  EXPECT_EQ(eccentricity(g, 0), 6);
}

TEST(PropertiesTest, DegeneracyOfTreeIsOne) {
  Rng rng(2);
  const Graph t = gen::random_tree(64, rng);
  EXPECT_EQ(degeneracy_order(t).degeneracy, 1u);
}

TEST(PropertiesTest, DegeneracyOfCompleteGraph) {
  EXPECT_EQ(degeneracy_order(gen::complete(6)).degeneracy, 5u);
}

TEST(PropertiesTest, DegeneracyOfCycleIsTwo) {
  EXPECT_EQ(degeneracy_order(gen::cycle(12)).degeneracy, 2u);
}

TEST(PropertiesTest, DegeneracyOrderIsPermutation) {
  const Graph g = gen::gnp_sharded_csr(50, 0.2, 4);
  const auto result = degeneracy_order(g);
  std::vector<bool> seen(50, false);
  for (VertexId v : result.order) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_EQ(result.order.size(), 50u);
}

TEST(PropertiesTest, ArboricityBoundsSandwich) {
  // Arboricity of K_6 is 3: lower bound ceil(15/5)=3, upper (degeneracy) 5.
  const auto bounds = arboricity_bounds(gen::complete(6));
  EXPECT_EQ(bounds.lower, 3u);
  EXPECT_EQ(bounds.upper, 5u);
  // A tree has arboricity 1.
  Rng rng(1);
  const auto tree_bounds = arboricity_bounds(gen::random_tree(40, rng));
  EXPECT_EQ(tree_bounds.lower, 1u);
  EXPECT_EQ(tree_bounds.upper, 1u);
}

TEST(PropertiesTest, TriangleCounts) {
  EXPECT_EQ(triangle_count(gen::complete(5)), 10u);  // C(5,3)
  EXPECT_EQ(triangle_count(gen::cycle(5)), 0u);
  EXPECT_EQ(triangle_count(gen::complete_bipartite(4, 4)), 0u);
  Rng rng(1);
  EXPECT_EQ(triangle_count(gen::random_tree(30, rng)), 0u);
}

TEST(PropertiesTest, AverageDegree) {
  EXPECT_DOUBLE_EQ(average_degree(gen::cycle(10)), 2.0);
  EXPECT_DOUBLE_EQ(average_degree(gen::empty(0)), 0.0);
  EXPECT_DOUBLE_EQ(average_degree(gen::complete(5)), 4.0);
}

}  // namespace
}  // namespace slumber
