// Unit and property tests for graph transforms (power, complement,
// disjoint union, subdivision, Mycielski).
#include <gtest/gtest.h>

#include <array>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "graph/properties.h"
#include "graph/transforms.h"
#include "util/rng.h"

namespace slumber {
namespace {

// ---------------------------------------------------------------------
// power
// ---------------------------------------------------------------------

TEST(PowerTest, PowerZeroIsEdgeless) {
  Graph g = gen::cycle(7);
  Graph p0 = power(g, 0);
  EXPECT_EQ(p0.num_vertices(), 7u);
  EXPECT_EQ(p0.num_edges(), 0u);
}

TEST(PowerTest, PowerOneIsIdentity) {
  Graph g = gen::gnp_sharded_csr(40, 0.1, 7);
  Graph p1 = power(g, 1);
  EXPECT_EQ(p1.edges(), g.edges());
}

TEST(PowerTest, CycleSquared) {
  // C_8 squared: every vertex gains its distance-2 neighbors -> 4-regular.
  Graph p = power(gen::cycle(8), 2);
  EXPECT_EQ(p.num_edges(), 16u);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(p.degree(v), 4u);
  EXPECT_TRUE(p.has_edge(0, 2));
  EXPECT_TRUE(p.has_edge(0, 1));
  EXPECT_FALSE(p.has_edge(0, 3));
}

TEST(PowerTest, PathCubed) {
  // P_5 cubed: 0 reaches 1,2,3 but not 4.
  Graph p = power(gen::path(5), 3);
  EXPECT_TRUE(p.has_edge(0, 3));
  EXPECT_FALSE(p.has_edge(0, 4));
  EXPECT_TRUE(p.has_edge(1, 4));
}

TEST(PowerTest, LargePowerIsTransitiveClosurePerComponent) {
  // Two disjoint triangles; a huge power must not connect components.
  std::array<Graph, 2> parts = {gen::complete(3), gen::complete(3)};
  Graph g = disjoint_union(parts);
  Graph p = power(g, 100);
  EXPECT_EQ(p.num_edges(), 6u);  // each triangle saturates to K_3
  EXPECT_FALSE(p.has_edge(0, 3));
}

TEST(PowerTest, StarIsDiameterTwo) {
  Graph p = power(gen::star(10), 2);
  // Star squared is complete: hub at distance 1, leaves pairwise at 2.
  EXPECT_EQ(p.num_edges(), 45u);
}

// Property: edges of G^k connect vertices at BFS distance <= k, and
// every pair at distance <= k is an edge.
TEST(PowerTest, MatchesBfsDistances) {
  Graph g = gen::gnp_sharded_csr(30, 0.08, 99);
  for (std::uint32_t k : {2u, 3u}) {
    Graph p = power(g, k);
    auto dist = bfs_distances(g, 0);
    for (VertexId v = 1; v < g.num_vertices(); ++v) {
      const bool reachable = dist[v] >= 1 && dist[v] <= k;
      EXPECT_EQ(p.has_edge(0, v), reachable)
          << "k=" << k << " v=" << v << " dist=" << dist[v];
    }
  }
}

// ---------------------------------------------------------------------
// complement
// ---------------------------------------------------------------------

TEST(ComplementTest, CompleteToEmpty) {
  Graph c = complement(gen::complete(6));
  EXPECT_EQ(c.num_edges(), 0u);
}

TEST(ComplementTest, EmptyToComplete) {
  Graph c = complement(gen::empty(6));
  EXPECT_EQ(c.num_edges(), 15u);
}

TEST(ComplementTest, Involution) {
  Graph g = gen::gnp_sharded_csr(25, 0.3, 5);
  Graph cc = complement(complement(g));
  EXPECT_EQ(cc.edges(), g.edges());
}

TEST(ComplementTest, EdgeCountsSumToChoose2) {
  Graph g = gen::gnp_sharded_csr(31, 0.2, 6);
  Graph c = complement(g);
  EXPECT_EQ(g.num_edges() + c.num_edges(), 31u * 30u / 2);
}

TEST(ComplementTest, CycleFiveIsSelfComplementary) {
  // C_5 is self-complementary (as an unlabeled graph): the complement is
  // again a 5-cycle, i.e. 2-regular on 5 edges.
  Graph c = complement(gen::cycle(5));
  EXPECT_EQ(c.num_edges(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(c.degree(v), 2u);
}

// ---------------------------------------------------------------------
// disjoint_union
// ---------------------------------------------------------------------

TEST(DisjointUnionTest, OffsetsAndCounts) {
  std::array<Graph, 3> parts = {gen::complete(3), gen::empty(2),
                                gen::path(4)};
  Graph g = disjoint_union(parts);
  EXPECT_EQ(g.num_vertices(), 9u);
  EXPECT_EQ(g.num_edges(), 3u + 0u + 3u);
  EXPECT_TRUE(g.has_edge(0, 1));   // inside K_3
  EXPECT_TRUE(g.has_edge(5, 6));   // inside the path (offset 5)
  EXPECT_FALSE(g.has_edge(2, 3));  // across parts
  EXPECT_TRUE(g.is_isolated(3));
  EXPECT_TRUE(g.is_isolated(4));
}

TEST(DisjointUnionTest, EmptyInput) {
  Graph g = disjoint_union(std::span<const Graph>{});
  EXPECT_EQ(g.num_vertices(), 0u);
}

TEST(DisjointUnionTest, ComponentCountAdds) {
  std::array<Graph, 2> parts = {gen::cycle(4), gen::cycle(5)};
  Graph g = disjoint_union(parts);
  EXPECT_EQ(connected_components(g).count, 2u);
}

// ---------------------------------------------------------------------
// subdivision
// ---------------------------------------------------------------------

TEST(SubdivisionTest, TriangleBecomesHexagon) {
  Graph s = subdivision(gen::complete(3));
  EXPECT_EQ(s.num_vertices(), 6u);
  EXPECT_EQ(s.num_edges(), 6u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(s.degree(v), 2u);
  EXPECT_TRUE(is_bipartite(s));
}

TEST(SubdivisionTest, PreservesDegreesOfOriginals) {
  Graph g = gen::gnp_sharded_csr(20, 0.2, 11);
  Graph s = subdivision(g);
  EXPECT_EQ(s.num_vertices(), g.num_vertices() + g.num_edges());
  EXPECT_EQ(s.num_edges(), 2 * g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(s.degree(v), g.degree(v));
  }
  // Every subdivision vertex has degree exactly 2.
  for (VertexId x = g.num_vertices(); x < s.num_vertices(); ++x) {
    EXPECT_EQ(s.degree(x), 2u);
  }
  EXPECT_TRUE(is_bipartite(s));
}

// ---------------------------------------------------------------------
// mycielski
// ---------------------------------------------------------------------

TEST(MycielskiTest, OfK2IsC5) {
  // M(K_2) is the 5-cycle.
  Graph m = mycielski(gen::complete(2));
  EXPECT_EQ(m.num_vertices(), 5u);
  EXPECT_EQ(m.num_edges(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(m.degree(v), 2u);
}

TEST(MycielskiTest, OfC5IsGroetzsch) {
  // M(C_5) is the Groetzsch graph: 11 vertices, 20 edges, triangle-free.
  Graph m = mycielski(gen::cycle(5));
  EXPECT_EQ(m.num_vertices(), 11u);
  EXPECT_EQ(m.num_edges(), 20u);
  EXPECT_EQ(triangle_count(m), 0u);
}

TEST(MycielskiTest, ShadowAdjacency) {
  Graph g = gen::path(3);  // 0-1-2
  Graph m = mycielski(g);
  const VertexId apex = 6;
  // shadow(1) = 4 is adjacent to 1's neighbors {0, 2} and the apex.
  EXPECT_TRUE(m.has_edge(4, 0));
  EXPECT_TRUE(m.has_edge(4, 2));
  EXPECT_TRUE(m.has_edge(4, apex));
  // Shadows are pairwise non-adjacent.
  EXPECT_FALSE(m.has_edge(3, 4));
  EXPECT_FALSE(m.has_edge(4, 5));
  // Apex is not adjacent to originals.
  EXPECT_FALSE(m.has_edge(apex, 0));
}

TEST(MycielskiTest, PreservesTriangleFreeness) {
  Rng rng(3);
  Graph g = gen::random_tree(12, rng);  // trees are triangle-free
  Graph m = mycielski(g);
  EXPECT_EQ(triangle_count(m), 0u);
  EXPECT_EQ(m.num_vertices(), 25u);
  EXPECT_EQ(m.num_edges(), 3 * g.num_edges() + 12u);
}

}  // namespace
}  // namespace slumber
