// Brute-force cross-checks of graph-structural operations on random
// inputs: the induced subgraph, the line graph, ports, and the
// degeneracy order are validated against their definitions directly.
#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "graph/properties.h"
#include "util/rng.h"

namespace slumber {
namespace {

class StructureFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StructureFuzzTest, InducedSubgraphMatchesDefinition) {
  Rng rng(GetParam());
  const Graph g = gen::gnp_sharded_csr(30, 0.2, GetParam());
  // Random vertex subset.
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < 30; ++v) {
    if (rng.coin()) keep.push_back(v);
  }
  auto [sub, mapping] = g.induced(keep);
  ASSERT_EQ(sub.num_vertices(), keep.size());
  // Definition: new u ~ new v iff old counterparts adjacent in g.
  for (VertexId u = 0; u < sub.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < sub.num_vertices(); ++v) {
      EXPECT_EQ(sub.has_edge(u, v), g.has_edge(mapping[u], mapping[v]));
    }
  }
}

TEST_P(StructureFuzzTest, LineGraphMatchesDefinition) {
  const Graph g = gen::gnp_sharded_csr(16, 0.3, GetParam() + 1000);
  const Graph line = g.line_graph();
  ASSERT_EQ(line.num_vertices(), g.num_edges());
  const std::vector<Edge> edges = g.edges();
  for (EdgeId a = 0; a < edges.size(); ++a) {
    for (EdgeId b = a + 1; b < edges.size(); ++b) {
      const Edge ea = edges[a];
      const Edge eb = edges[b];
      const bool share = ea.u == eb.u || ea.u == eb.v || ea.v == eb.u ||
                         ea.v == eb.v;
      EXPECT_EQ(line.has_edge(a, b), share) << a << "," << b;
    }
  }
}

TEST_P(StructureFuzzTest, PortsBijectiveWithNeighbors) {
  const Graph g = gen::gnp_sharded_csr(25, 0.25, GetParam() + 2000);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::set<VertexId> seen;
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      const VertexId u = g.neighbor(v, p);
      EXPECT_TRUE(seen.insert(u).second);  // ports hit distinct neighbors
      EXPECT_TRUE(g.has_edge(v, u));
      EXPECT_EQ(g.port_to(v, u), static_cast<std::int64_t>(p));
    }
    EXPECT_EQ(seen.size(), g.degree(v));
  }
}

TEST_P(StructureFuzzTest, DegeneracyOrderWitnessesItsValue) {
  // Definition: removing vertices in the order, each vertex has at most
  // `degeneracy` not-yet-removed neighbors at its removal time -- and
  // at least one vertex attains it.
  const Graph g = gen::gnp_sharded_csr(40, 0.15, GetParam() + 3000);
  const auto result = degeneracy_order(g);
  std::vector<bool> removed(g.num_vertices(), false);
  std::uint32_t max_seen = 0;
  for (VertexId v : result.order) {
    std::uint32_t residual = 0;
    for (VertexId u : g.neighbors(v)) {
      if (!removed[u]) ++residual;
    }
    max_seen = std::max(max_seen, residual);
    EXPECT_LE(residual, result.degeneracy);
    removed[v] = true;
  }
  EXPECT_EQ(max_seen, result.degeneracy);
}

TEST_P(StructureFuzzTest, ComponentsPartitionAndRespectEdges) {
  // Sparse: multiple components.
  const Graph g = gen::gnp_sharded_csr(40, 0.04, GetParam() + 4000);
  const Components c = connected_components(g);
  for (const Edge& e : g.edges()) {
    EXPECT_EQ(c.component_of[e.u], c.component_of[e.v]);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(c.component_of[v], c.count);
  }
  // Cross-component pairs are non-adjacent and BFS-unreachable.
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(dist[v] >= 0, c.component_of[v] == c.component_of[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructureFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace slumber
