// Tests for the direct (propose-accept) distributed maximal matching.
#include <gtest/gtest.h>

#include <tuple>

#include "algos/israeli_itai.h"
#include "algos/matching.h"
#include "graph/generators.h"
#include "graph/transforms.h"
#include "sim/network.h"
#include "util/rng.h"

namespace slumber::algos {
namespace {

std::vector<EdgeId> run_matching(const Graph& g, std::uint64_t seed) {
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(
      std::max<std::uint64_t>(g.num_vertices(), 2));
  auto [metrics, outputs] =
      sim::run_protocol(g, seed, israeli_itai_matching(), options);
  auto matched = matching_from_outputs(g, outputs);
  EXPECT_TRUE(matched.has_value()) << "inconsistent partner outputs";
  return matched.value_or(std::vector<EdgeId>{});
}

TEST(IsraeliItaiTest, IsolatedNodesStayUnmatched) {
  const Graph g = gen::empty(5);
  sim::NetworkOptions options;
  auto [metrics, outputs] =
      sim::run_protocol(g, 1, israeli_itai_matching(), options);
  for (std::int64_t out : outputs) EXPECT_EQ(out, -1);
  // Zero awake rounds: they exit before their first exchange.
  EXPECT_EQ(metrics.total_awake_node_rounds, 0u);
}

TEST(IsraeliItaiTest, SingleEdgeMatches) {
  const Graph g(2, {{0, 1}});
  const auto matched = run_matching(g, 2);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_TRUE(is_maximal_matching(g, matched));
}

TEST(IsraeliItaiTest, TriangleMatchesOneEdge) {
  const Graph g = gen::complete(3);
  const auto matched = run_matching(g, 3);
  EXPECT_EQ(matched.size(), 1u);
  EXPECT_TRUE(is_maximal_matching(g, matched));
}

TEST(IsraeliItaiTest, CompleteBipartitePerfect) {
  const Graph g = gen::complete_bipartite(7, 7);
  const auto matched = run_matching(g, 4);
  EXPECT_EQ(matched.size(), 7u);
  EXPECT_TRUE(is_maximal_matching(g, matched));
}

TEST(IsraeliItaiTest, DeterministicInSeed) {
  const Graph g = gen::gnp_sharded_csr(60, 0.1, 5);
  sim::NetworkOptions options;
  auto first = sim::run_protocol(g, 99, israeli_itai_matching(), options);
  auto second = sim::run_protocol(g, 99, israeli_itai_matching(), options);
  EXPECT_EQ(first.outputs, second.outputs);
}

TEST(IsraeliItaiTest, MessagesAreConstantWidth) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(80, 5.0, 6);
  sim::NetworkOptions options;
  options.max_message_bits = 10;  // O(1)-bit messages, not even log n
  auto [metrics, outputs] =
      sim::run_protocol(g, 7, israeli_itai_matching(), options);
  EXPECT_EQ(metrics.congest_violations, 0u);
  auto matched = matching_from_outputs(g, outputs);
  ASSERT_TRUE(matched.has_value());
  EXPECT_TRUE(is_maximal_matching(g, *matched));
}

TEST(IsraeliItaiTest, ConsistencyCheckerCatchesLies) {
  const Graph g = gen::path(4);  // 0-1-2-3
  // 0 claims 1 but 1 claims 2: inconsistent.
  EXPECT_FALSE(matching_from_outputs(g, {1, 2, 1, -1}).has_value());
  // 0 claims 3: not an edge.
  EXPECT_FALSE(matching_from_outputs(g, {3, -1, -1, 0}).has_value());
  // Out-of-range id.
  EXPECT_FALSE(matching_from_outputs(g, {9, -1, -1, -1}).has_value());
  // Valid mutual pair.
  const auto ok = matching_from_outputs(g, {1, 0, 3, 2});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->size(), 2u);
}

struct IsraeliItaiSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(IsraeliItaiSweep, MaximalOnManyShapes) {
  const auto [shape, seed] = GetParam();
  Rng rng(seed);
  Graph g;
  switch (shape) {
    case 0: g = gen::gnp_avg_degree_sharded_csr(120, 6.0, seed); break;
    case 1: g = gen::cycle(101); break;
    case 2: g = gen::star(64); break;
    case 3: g = gen::grid(9, 11); break;
    case 4: g = gen::barabasi_albert(150, 3, rng); break;
    default: g = subdivision(gen::complete(8)); break;
  }
  const auto matched = run_matching(g, seed * 53 + 11);
  EXPECT_TRUE(is_maximal_matching(g, matched)) << g.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IsraeliItaiSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(1u, 2u, 3u, 4u)));

}  // namespace
}  // namespace slumber::algos
