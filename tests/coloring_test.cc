// Tests for Luby's (Delta+1)-coloring -- the paper's traditional-model
// O(1) node-averaged contrast point (Section 1.5).
#include <gtest/gtest.h>

#include "algos/luby_coloring.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::algos {
namespace {

sim::RunResult run_on(const Graph& g, std::uint64_t seed) {
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  return sim::run_protocol(g, seed, luby_coloring(), options);
}

TEST(ColoringTest, ProperOnCoreFamilies) {
  for (gen::Family family : gen::core_families()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = gen::make(family, 70, seed);
      auto [metrics, outputs] = run_on(g, seed * 3 + 1);
      EXPECT_TRUE(analysis::check_coloring(g, outputs))
          << gen::family_name(family) << " seed " << seed;
    }
  }
}

TEST(ColoringTest, IsolatedNodesGetColorZero) {
  const Graph g = gen::empty(4);
  auto [metrics, outputs] = run_on(g, 1);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(outputs[v], 0);
}

TEST(ColoringTest, CompleteGraphUsesAllColors) {
  const Graph g = gen::complete(8);
  auto [metrics, outputs] = run_on(g, 5);
  std::vector<bool> used(8, false);
  for (auto c : outputs) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 8);
    EXPECT_FALSE(used[static_cast<std::size_t>(c)]);
    used[static_cast<std::size_t>(c)] = true;
  }
}

TEST(ColoringTest, ColorsWithinDegreePlusOne) {
  Rng rng(2);
  const Graph g = gen::barabasi_albert(100, 3, rng);
  auto [metrics, outputs] = run_on(g, 7);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(outputs[v], 0);
    EXPECT_LE(outputs[v], static_cast<std::int64_t>(g.degree(v)));
  }
}

TEST(ColoringTest, NodeAveragedRoundsSmall) {
  // The O(1) node-averaged property: the mean decision round stays small
  // and essentially flat in n (each iteration finishes >= 1/4 of nodes).
  for (const VertexId n : {64u, 256u, 1024u}) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n);
    auto [metrics, outputs] = run_on(g, 3);
    EXPECT_TRUE(analysis::check_coloring(g, outputs));
    EXPECT_LE(metrics.node_avg_decided(), 12.0) << n;
  }
}

TEST(ColoringTest, DeterministicGivenSeed) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 5);
  auto a = run_on(g, 9);
  auto b = run_on(g, 9);
  EXPECT_EQ(a.outputs, b.outputs);
}

}  // namespace
}  // namespace slumber::algos
