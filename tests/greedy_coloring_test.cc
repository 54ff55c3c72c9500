// Tests for the distributed randomized greedy (lex-first) coloring.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "algos/common.h"
#include "algos/greedy_coloring.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "graph/transforms.h"

namespace slumber::algos {
namespace {

sim::RunResult run_coloring(const Graph& g, std::uint64_t seed,
                            GreedyColoringOptions options = {}) {
  sim::NetworkOptions net;
  net.max_message_bits = sim::congest_bits_for(
      std::max<std::uint64_t>(g.num_vertices(), 2));
  return sim::run_protocol(g, seed, greedy_coloring(options), net);
}

TEST(GreedyColoringTest, SingleNodeGetsColorZero) {
  Graph g = gen::empty(1);
  auto [metrics, outputs] = run_coloring(g, 1);
  EXPECT_EQ(outputs[0], 0);
}

TEST(GreedyColoringTest, PathIsProper) {
  Graph g = gen::path(10);
  auto [metrics, outputs] = run_coloring(g, 2);
  EXPECT_TRUE(analysis::check_coloring(g, outputs));
}

TEST(GreedyColoringTest, CompleteGraphUsesAllColors) {
  Graph g = gen::complete(7);
  auto [metrics, outputs] = run_coloring(g, 3);
  EXPECT_TRUE(analysis::check_coloring(g, outputs));
  std::vector<std::int64_t> sorted = outputs;
  std::sort(sorted.begin(), sorted.end());
  for (std::int64_t c = 0; c < 7; ++c) EXPECT_EQ(sorted[c], c);
}

TEST(GreedyColoringTest, MatchesSequentialGreedyOnRankOrder) {
  Graph g = gen::gnp_avg_degree_sharded_csr(60, 5.0, 4);
  std::vector<std::uint64_t> ranks(g.num_vertices(), 0);
  GreedyColoringOptions options;
  options.ranks_out = &ranks;
  auto [metrics, outputs] = run_coloring(g, 17, options);
  ASSERT_TRUE(analysis::check_coloring(g, outputs));

  // Sequential greedy along (rank, id) descending must coincide.
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return priority_beats(ranks[a], a, ranks[b], b);
  });
  const auto sequential = sequential_greedy_coloring(g, order);
  EXPECT_EQ(outputs, sequential);
}

TEST(GreedyColoringTest, DecidedRoundTracksRankChainDepth) {
  // On a star the hub or each leaf waits on at most one other node, so
  // everyone decides within a few rounds.
  Graph g = gen::star(50);
  auto [metrics, outputs] = run_coloring(g, 5);
  ASSERT_TRUE(analysis::check_coloring(g, outputs));
  EXPECT_LE(metrics.worst_finish(), 6u);
}

TEST(GreedyColoringTest, DeterministicInSeed) {
  Graph g = gen::gnp_sharded_csr(40, 0.15, 6);
  auto first = run_coloring(g, 23);
  auto second = run_coloring(g, 23);
  EXPECT_EQ(first.outputs, second.outputs);
}

TEST(GreedyColoringTest, SequentialReferenceRespectsOrder) {
  // On the path 0-1-2, coloring order {1, 0, 2} gives 1 color 0 and its
  // neighbors color 1; order {0, 1, 2} alternates 0, 1, 0.
  Graph g = gen::path(3);
  EXPECT_EQ(sequential_greedy_coloring(g, {1, 0, 2}),
            (std::vector<std::int64_t>{1, 0, 1}));
  EXPECT_EQ(sequential_greedy_coloring(g, {0, 1, 2}),
            (std::vector<std::int64_t>{0, 1, 0}));
}

struct GreedyColoringSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(GreedyColoringSweep, ProperOnRandomAndTransformed) {
  const auto [n, seed] = GetParam();
  const Graph base =
      gen::gnp_avg_degree_sharded_csr(static_cast<VertexId>(n), 6.0, seed);
  for (const Graph& g :
       {base, mycielski(gen::cycle(9)), subdivision(gen::complete(6))}) {
    auto [metrics, outputs] = run_coloring(g, seed * 31 + 7);
    EXPECT_TRUE(analysis::check_coloring(g, outputs)) << g.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GreedyColoringSweep,
    ::testing::Combine(::testing::Values(24, 80, 200),
                       ::testing::Values(1u, 2u, 3u, 4u)));

}  // namespace
}  // namespace slumber::algos
