// Unit + property tests for the workload generators.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/properties.h"

namespace slumber::gen {
namespace {

TEST(GeneratorsTest, EmptyAndComplete) {
  EXPECT_EQ(empty(7).num_edges(), 0u);
  const Graph k5 = complete(5);
  EXPECT_EQ(k5.num_edges(), 10u);
  EXPECT_EQ(k5.max_degree(), 4u);
}

TEST(GeneratorsTest, CycleDegreesAndSize) {
  const Graph c = cycle(10);
  EXPECT_EQ(c.num_edges(), 10u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(c.degree(v), 2u);
  EXPECT_THROW(cycle(2), std::invalid_argument);
}

TEST(GeneratorsTest, PathAndStar) {
  const Graph p = path(6);
  EXPECT_EQ(p.num_edges(), 5u);
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(3), 2u);
  const Graph s = star(6);
  EXPECT_EQ(s.degree(0), 5u);
  EXPECT_EQ(s.num_edges(), 5u);
}

TEST(GeneratorsTest, CompleteBipartite) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  for (VertexId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 4u);
  for (VertexId v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_EQ(triangle_count(g), 0u);  // bipartite => triangle-free
}

TEST(GeneratorsTest, GridAndTorus) {
  const Graph g = grid(4, 5);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 4u * 4 + 5u * 3);  // rows*(cols-1)+cols*(rows-1)
  const Graph t = torus(4, 5);
  EXPECT_EQ(t.num_edges(), 2u * 20);
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(t.degree(v), 4u);
}

TEST(GeneratorsTest, Hypercube) {
  const Graph q4 = hypercube(4);
  EXPECT_EQ(q4.num_vertices(), 16u);
  EXPECT_EQ(q4.num_edges(), 32u);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(q4.degree(v), 4u);
  EXPECT_EQ(diameter(q4), 4);
}

TEST(GeneratorsTest, BinaryTreeIsTree) {
  const Graph t = binary_tree(31);
  EXPECT_EQ(t.num_edges(), 30u);
  EXPECT_TRUE(is_connected(t));
}

TEST(GeneratorsTest, Lollipop) {
  const Graph g = lollipop(20, 8);
  EXPECT_EQ(g.num_edges(), 8u * 7 / 2 + 12u);
  EXPECT_TRUE(is_connected(g));
  // Arboricity upper bound is high in the clique head.
  EXPECT_GE(arboricity_bounds(g).upper, 4u);
}

TEST(GeneratorsTest, Caterpillar) {
  const Graph g = caterpillar(5, 3);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 19u);
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneratorsTest, CliqueChain) {
  const Graph g = clique_chain(20, 5);
  EXPECT_EQ(connected_components(g).count, 4u);
  EXPECT_EQ(g.num_edges(), 4u * 10);
}

TEST(GeneratorsTest, GnpEdgeCountNearExpectation) {
  const VertexId n = 400;
  const double p = 0.05;
  const Graph g = gnp_sharded_csr(n, p, 42);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_GT(static_cast<double>(g.num_edges()), 0.8 * expected);
  EXPECT_LT(static_cast<double>(g.num_edges()), 1.2 * expected);
}

TEST(GeneratorsTest, GnpExtremes) {
  EXPECT_EQ(gnp_sharded_csr(50, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(gnp_sharded_csr(10, 1.0, 1).num_edges(), 45u);
}

TEST(GeneratorsTest, GnpAvgDegree) {
  const Graph g = gnp_avg_degree_sharded_csr(500, 8.0, 7);
  EXPECT_NEAR(average_degree(g), 8.0, 1.5);
}

TEST(GeneratorsTest, RandomTreeIsTree) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Graph t = random_tree(50, rng);
    EXPECT_EQ(t.num_edges(), 49u);
    EXPECT_TRUE(is_connected(t));
  }
}

TEST(GeneratorsTest, RandomRegularDegrees) {
  Rng rng(3);
  const Graph g = random_regular(60, 4, rng);
  for (VertexId v = 0; v < 60; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);
  EXPECT_THROW(random_regular(4, 4, rng), std::invalid_argument);
}

TEST(GeneratorsTest, BarabasiAlbertSizes) {
  Rng rng(9);
  const Graph g = barabasi_albert(300, 3, rng);
  EXPECT_EQ(g.num_vertices(), 300u);
  EXPECT_TRUE(is_connected(g));
  // Heavy tail: max degree well above m.
  EXPECT_GT(g.max_degree(), 10u);
}

TEST(GeneratorsTest, RandomGeometricRespectsRadius) {
  Rng rng(5);
  std::vector<std::pair<double, double>> coords;
  const Graph g = random_geometric(200, 0.15, rng, &coords);
  ASSERT_EQ(coords.size(), 200u);
  for (const Edge& e : g.edges()) {
    const double dx = coords[e.u].first - coords[e.v].first;
    const double dy = coords[e.u].second - coords[e.v].second;
    EXPECT_LE(std::sqrt(dx * dx + dy * dy), 0.15 + 1e-12);
  }
  // Spot-check completeness: no missing close pair.
  for (VertexId u = 0; u < 50; ++u) {
    for (VertexId v = u + 1; v < 50; ++v) {
      const double dx = coords[u].first - coords[v].first;
      const double dy = coords[u].second - coords[v].second;
      if (dx * dx + dy * dy <= 0.15 * 0.15) {
        EXPECT_TRUE(g.has_edge(u, v));
      }
    }
  }
}

TEST(GeneratorsTest, GeneratorsAreDeterministic) {
  for (Family family : all_families()) {
    const Graph a = make(family, 64, 123);
    const Graph b = make(family, 64, 123);
    EXPECT_EQ(a.edges(), b.edges()) << family_name(family);
  }
}

TEST(GeneratorsTest, FamilyFactoryProducesRequestedScale) {
  for (Family family : core_families()) {
    const Graph g = make(family, 100, 1);
    EXPECT_GE(g.num_vertices(), 50u) << family_name(family);
    EXPECT_LE(g.num_vertices(), 160u) << family_name(family);
  }
}

TEST(GeneratorsTest, FamilyNamesUnique) {
  std::vector<std::string> names;
  for (Family family : all_families()) names.push_back(family_name(family));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace slumber::gen
