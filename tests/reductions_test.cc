// Cross-module consistency of the problem-family reductions
// (Barenboim-Tzur family, paper Section 1.5): maximal matching and
// edge coloring through the line graph, ruling sets through graph
// powers. Checks the combinatorial bounds that tie the reduced
// solution back to the original graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>

#include "algos/edge_coloring.h"
#include "algos/matching.h"
#include "algos/ruling_set.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "graph/transforms.h"

namespace slumber::algos {
namespace {

// |M| >= m / (2*Delta - 1): each matched edge can dominate at most
// 2*Delta - 2 other edges plus itself in the line graph.
TEST(ReductionBoundsTest, MatchingSizeLowerBound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(80, 6.0, seed);
    if (g.num_edges() == 0) continue;
    const auto result =
        maximal_matching_via_mis(g, seed * 3 + 1, MisEngine::kSleeping);
    ASSERT_TRUE(is_maximal_matching(g, result.matched_edges));
    const double bound = static_cast<double>(g.num_edges()) /
                         (2.0 * g.max_degree() - 1.0);
    EXPECT_GE(static_cast<double>(result.matched_edges.size()) + 1e-9, bound);
    // And trivially at most floor(n/2) edges.
    EXPECT_LE(result.matched_edges.size(), g.num_vertices() / 2);
  }
}

// A perfect structure check: on K_{a,a} a maximal matching is perfect.
TEST(ReductionBoundsTest, CompleteBipartiteMatchingIsPerfect) {
  const Graph g = gen::complete_bipartite(6, 6);
  const auto result = maximal_matching_via_mis(g, 9, MisEngine::kGreedy);
  ASSERT_TRUE(is_maximal_matching(g, result.matched_edges));
  EXPECT_EQ(result.matched_edges.size(), 6u);
}

// Edge coloring induces a partition into matchings: each color class is
// itself a (not necessarily maximal) matching.
TEST(ReductionBoundsTest, ColorClassesAreMatchings) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(60, 6.0, 4);
  const auto result = edge_coloring_via_line_graph(g, 21);
  ASSERT_TRUE(check_edge_coloring(g, result.colors));
  const std::int64_t max_color =
      result.colors.empty()
          ? -1
          : *std::max_element(result.colors.begin(), result.colors.end());
  const std::vector<Edge> edges = g.edges();
  for (std::int64_t c = 0; c <= max_color; ++c) {
    std::vector<EdgeId> cls;
    for (EdgeId e = 0; e < result.colors.size(); ++e) {
      if (result.colors[e] == c) cls.push_back(e);
    }
    // A matching: no two class edges share an endpoint.
    std::vector<std::uint8_t> covered(g.num_vertices(), 0);
    for (EdgeId e : cls) {
      const Edge edge = edges[e];
      EXPECT_FALSE(covered[edge.u] || covered[edge.v])
          << "color " << c << " is not a matching";
      covered[edge.u] = 1;
      covered[edge.v] = 1;
    }
  }
  // Color count lower bound: at least Delta colors are needed (Vizing
  // lower side), since Delta edges meet at a max-degree vertex.
  EXPECT_GE(result.colors_used, g.max_degree());
}

// Ruling-set hierarchy: the (k+1, k)-ruling set from G^k is also a
// valid (j+1, k)-ruling set for every j <= k (weaker independence),
// and never larger than the MIS from k = 1 on the same seed.
TEST(ReductionBoundsTest, RulingSetHierarchy) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(70, 5.0, 8);
  const auto mis = ruling_set_via_mis(g, 1, 33, MisEngine::kGreedy);
  const auto rs2 = ruling_set_via_mis(g, 2, 33, MisEngine::kGreedy);
  const auto rs3 = ruling_set_via_mis(g, 3, 33, MisEngine::kGreedy);
  for (std::uint32_t j = 1; j <= 2; ++j) {
    EXPECT_TRUE(check_ruling_set(g, rs2.rulers, j + 1, 2).ok());
  }
  for (std::uint32_t j = 1; j <= 3; ++j) {
    EXPECT_TRUE(check_ruling_set(g, rs3.rulers, j + 1, 3).ok());
  }
  EXPECT_LE(rs2.rulers.size(), mis.rulers.size());
  EXPECT_LE(rs3.rulers.size(), rs2.rulers.size());
}

// Matching on the subdivision graph: every edge of S(G) joins an
// original vertex to a subdivision vertex, so each matched pair must
// straddle the bipartition. Checks the reduction on a graph with
// guaranteed structure.
TEST(ReductionBoundsTest, SubdivisionMatchingPairsAcrossBipartition) {
  const Graph base = gen::complete(6);
  const Graph s = subdivision(base);
  const auto result = maximal_matching_via_mis(s, 77, MisEngine::kLubyA);
  ASSERT_TRUE(is_maximal_matching(s, result.matched_edges));
  const std::vector<Edge> edges = s.edges();
  for (EdgeId e : result.matched_edges) {
    const Edge edge = edges[e];
    const bool u_is_original = edge.u < base.num_vertices();
    const bool v_is_original = edge.v < base.num_vertices();
    EXPECT_NE(u_is_original, v_is_original);
  }
}

struct ReductionEngineSweep : public ::testing::TestWithParam<MisEngine> {};

TEST_P(ReductionEngineSweep, MatchingValidOnHardShapes) {
  const MisEngine engine = GetParam();
  const std::vector<Graph> shapes = {
      gen::star(30),                 // all edges pairwise adjacent
      gen::complete(9),              // line graph is dense
      gen::path(2),                  // single edge
      gen::cycle(5),                 // odd cycle
      mycielski(gen::complete(2)),   // C_5 again, via transform
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto result =
        maximal_matching_via_mis(shapes[i], 100 + i, engine);
    EXPECT_TRUE(is_maximal_matching(shapes[i], result.matched_edges))
        << "shape " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ReductionEngineSweep,
    ::testing::Values(MisEngine::kSleeping, MisEngine::kFastSleeping,
                      MisEngine::kLubyA, MisEngine::kLubyB,
                      MisEngine::kGreedy, MisEngine::kGhaffari));

}  // namespace
}  // namespace slumber::algos
