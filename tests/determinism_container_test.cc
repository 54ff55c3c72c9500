// Pins the ordered-container rewrites (lint rule slumber-d2) to the
// behavior of the hash-container code they replaced: Graph::induced's
// relabeling (formerly std::unordered_map) and the edge-coloring
// distinct-count / adjacency-check scans (formerly std::unordered_set)
// must produce bit-identical results on seeded graphs. The reference
// implementations below are verbatim ports of the pre-rewrite logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algos/edge_coloring.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace slumber {
namespace {

// Pre-rewrite Graph::induced, kept as the behavioral oracle. Only
// find/emplace touch the map — never iteration — so its output was
// deterministic and the sorted-vector rewrite must match it exactly.
std::pair<Graph, std::vector<VertexId>> induced_reference(
    const Graph& g, std::span<const VertexId> vertices) {
  std::unordered_map<VertexId, VertexId> to_new;
  to_new.reserve(vertices.size());
  std::vector<VertexId> to_original(vertices.begin(), vertices.end());
  for (VertexId i = 0; i < to_original.size(); ++i) {
    auto [it, inserted] = to_new.emplace(to_original[i], i);
    if (!inserted) throw std::invalid_argument("duplicate vertex");
  }
  std::vector<Edge> sub_edges;
  for (const Edge& e : g.edges()) {
    auto iu = to_new.find(e.u);
    if (iu == to_new.end()) continue;
    auto iv = to_new.find(e.v);
    if (iv == to_new.end()) continue;
    sub_edges.push_back({iu->second, iv->second});
  }
  return {Graph(static_cast<VertexId>(to_original.size()),
                std::move(sub_edges)),
          std::move(to_original)};
}

// Pre-rewrite distinct-color count (hash-set cardinality).
std::size_t colors_used_reference(const std::vector<std::int64_t>& colors) {
  std::unordered_set<std::int64_t> distinct;
  for (std::int64_t c : colors) {
    if (c >= 0) distinct.insert(c);
  }
  return distinct.size();
}

// Pre-rewrite check_edge_coloring (per-vertex hash-set scan).
bool check_edge_coloring_reference(const Graph& g,
                                   const std::vector<std::int64_t>& colors) {
  if (colors.size() != g.num_edges()) return false;
  const std::int64_t palette = std::max<std::int64_t>(
      2 * static_cast<std::int64_t>(g.max_degree()) - 1, 1);
  for (std::int64_t c : colors) {
    if (c < 0 || c >= palette) return false;
  }
  const std::vector<Edge> edges = g.edges();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::unordered_set<std::int64_t> seen;
    for (VertexId u : g.neighbors(v)) {
      const Edge e = u < v ? Edge{u, v} : Edge{v, u};
      const auto it = std::lower_bound(edges.begin(), edges.end(), e);
      const auto eid = static_cast<EdgeId>(it - edges.begin());
      if (!seen.insert(colors[eid]).second) return false;
    }
  }
  return true;
}

std::vector<VertexId> every_other_vertex(const Graph& g) {
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) keep.push_back(v);
  return keep;
}

TEST(DeterminismContainerTest, InducedMatchesHashMapReferenceOnSeededGnp) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Graph g = gen::gnp_avg_degree_sharded_csr(200, 6.0, seed);
    const auto keep = every_other_vertex(g);
    auto [sub, mapping] = g.induced(keep);
    auto [ref_sub, ref_mapping] = induced_reference(g, keep);
    EXPECT_EQ(mapping, ref_mapping) << "seed " << seed;
    EXPECT_EQ(sub.num_vertices(), ref_sub.num_vertices()) << "seed " << seed;
    EXPECT_EQ(sub.edges(), ref_sub.edges()) << "seed " << seed;
  }
}

TEST(DeterminismContainerTest, InducedMatchesReferenceOnUnsortedSubset) {
  // The subset order defines the relabeling; feed a deliberately
  // shuffled subset so mapping-by-position is actually exercised.
  Graph g = gen::gnp_avg_degree_sharded_csr(128, 8.0, 77);
  std::vector<VertexId> keep = {90, 3, 17, 64, 2, 127, 55, 4, 31, 8};
  auto [sub, mapping] = g.induced(keep);
  auto [ref_sub, ref_mapping] = induced_reference(g, keep);
  EXPECT_EQ(mapping, ref_mapping);
  EXPECT_EQ(sub.edges(), ref_sub.edges());
}

TEST(DeterminismContainerTest, InducedStillRejectsDuplicates) {
  Graph g(4, {{0, 1}, {1, 2}});
  std::vector<VertexId> dup = {0, 1, 1};
  EXPECT_THROW(g.induced(dup), std::invalid_argument);
}

TEST(DeterminismContainerTest, ColorsUsedMatchesHashSetReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Graph g = gen::gnp_avg_degree_sharded_csr(60, 4.0, seed);
    auto result = algos::edge_coloring_via_line_graph(g, seed);
    EXPECT_EQ(result.colors_used, colors_used_reference(result.colors))
        << "seed " << seed;
  }
}

TEST(DeterminismContainerTest, CheckEdgeColoringMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Graph g = gen::gnp_avg_degree_sharded_csr(60, 4.0, seed);
    auto result = algos::edge_coloring_via_line_graph(g, seed);
    // Valid coloring: both agree it checks out.
    EXPECT_TRUE(algos::check_edge_coloring(g, result.colors));
    EXPECT_TRUE(check_edge_coloring_reference(g, result.colors));
    if (g.num_edges() < 2) continue;
    // Corrupt one edge to collide with a same-endpoint neighbor: both
    // implementations must reject identically.
    auto corrupted = result.colors;
    const std::vector<Edge> edges = g.edges();
    const Edge e0 = edges[0];
    for (std::size_t eid = 1; eid < corrupted.size(); ++eid) {
      const Edge e = edges[eid];
      if (e.u == e0.u || e.v == e0.u || e.u == e0.v || e.v == e0.v) {
        corrupted[eid] = result.colors[0];
        break;
      }
    }
    EXPECT_EQ(algos::check_edge_coloring(g, corrupted),
              check_edge_coloring_reference(g, corrupted))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace slumber
