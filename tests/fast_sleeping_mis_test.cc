// Tests for Algorithm 2 (Fast-SleepingMIS): correctness, the truncated
// schedule (Theorem 2), the fixed-duration greedy base case, and the
// Corollary-1 equivalence with sequential greedy on (bits, base rank).
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/experiment.h"
#include "analysis/verify.h"
#include "core/fast_sleeping_mis.h"
#include "core/rank.h"
#include "core/schedule.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::core {
namespace {

sim::RunResult run_on(const Graph& g, std::uint64_t seed,
                      RecursionTrace* trace = nullptr,
                      FastSleepingMisOptions options = {}) {
  sim::NetworkOptions net_options;
  net_options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  return sim::run_protocol(g, seed, fast_sleeping_mis(options, trace),
                           net_options);
}

TEST(FastSleepingMisTest, ValidOnManyFamiliesAndSeeds) {
  for (gen::Family family : gen::core_families()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = gen::make(family, 80, seed);
      auto [metrics, outputs] = run_on(g, seed * 31 + 7);
      EXPECT_TRUE(analysis::check_mis(g, outputs).ok())
          << gen::family_name(family) << " seed " << seed;
    }
  }
}

TEST(FastSleepingMisTest, MakespanMatchesTruncatedSchedule) {
  // Theorem 2 / Lemma 13: all nodes finish at exactly T2(K2) where
  // T2(0) = R (the fixed greedy budget).
  for (const VertexId n : {16u, 64u, 256u}) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(n, 6.0, n);
    auto [metrics, outputs] = run_on(g, 5);
    const std::uint64_t expected =
        schedule_duration(fast_recursion_depth(n), greedy_base_rounds(n));
    EXPECT_EQ(metrics.makespan, expected) << n;
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(metrics.node[v].finish_round, expected);
    }
  }
}

TEST(FastSleepingMisTest, MakespanIsPolylogNotCubic) {
  const VertexId n = 256;
  const Graph g = gen::gnp_avg_degree_sharded_csr(n, 6.0, 1);
  auto [metrics, outputs] = run_on(g, 9);
  // Algorithm 1 would take ~3 n^3 = 5e7 rounds; Algorithm 2 stays tiny.
  EXPECT_LT(metrics.makespan, 100'000u);
  EXPECT_GT(metrics.makespan, 10u);
}

TEST(FastSleepingMisTest, MatchesSequentialGreedyOnBitsAndRanks) {
  // Corollary 1 for Algorithm 2: output equals sequential greedy under
  // the order (decreasing K2-rank, then decreasing (base rank, id)).
  for (gen::Family family :
       {gen::Family::kGnpSparse, gen::Family::kGrid, gen::Family::kStar,
        gen::Family::kBarabasiAlbert}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = gen::make(family, 70, seed);
      RecursionTrace trace;
      auto [metrics, outputs] = run_on(g, seed * 101, &trace);
      const auto order = greedy_order_from_bits_and_base(
          trace.bits, trace.levels, trace.base_rank);
      const auto expected = lex_first_mis(g, order);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(outputs[v], static_cast<std::int64_t>(expected[v]))
            << gen::family_name(family) << " seed " << seed << " v " << v;
      }
    }
  }
}

TEST(FastSleepingMisTest, BaseBudgetOverrideChangesMakespan) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 2);
  FastSleepingMisOptions options;
  options.base_rounds = 20;
  auto [metrics, outputs] = run_on(g, 3, nullptr, options);
  EXPECT_EQ(metrics.makespan,
            schedule_duration(fast_recursion_depth(64), 20));
}

TEST(FastSleepingMisTest, OneRoundBaseBudgetRejected) {
  // One round holds no 2-round greedy iteration: the base case would
  // leave every undecided node undecided.
  FastSleepingMisOptions options;
  options.base_rounds = 1;
  EXPECT_THROW(fast_sleeping_mis(options), std::invalid_argument);
}

TEST(FastSleepingMisTest, OddBaseBudgetSleepsItsLastRound) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(2000, 8.0, 1);
  FastSleepingMisOptions options;
  options.base_rounds = 3;
  auto [metrics, outputs] = run_on(g, 1, nullptr, options);
  EXPECT_EQ(metrics.makespan,
            schedule_duration(fast_recursion_depth(2000), 3));
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
}

TEST(FastSleepingMisTest, LevelsOverrideUsesDeeperTree) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 3);
  FastSleepingMisOptions options;
  options.levels = 7;
  RecursionTrace trace;
  auto [metrics, outputs] = run_on(g, 3, &trace, options);
  EXPECT_EQ(trace.levels, 7u);
  EXPECT_EQ(metrics.makespan,
            schedule_duration(7, greedy_base_rounds(64)));
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
}

TEST(FastSleepingMisTest, TinyBudgetLeavesBaseUnknownButIndependent) {
  // With an absurdly small base budget the greedy cannot finish dense
  // cells: the run must remain independent (never two adjacent MIS
  // nodes) even if maximality fails -- the Monte Carlo failure mode.
  const Graph g = gen::complete(24);
  FastSleepingMisOptions options;
  options.base_rounds = 2;
  options.levels = 1;
  auto [metrics, outputs] = run_on(g, 5, nullptr, options);
  for (const Edge& e : g.edges()) {
    EXPECT_FALSE(outputs[e.u] == 1 && outputs[e.v] == 1);
  }
}

TEST(FastSleepingMisTest, WorstAwakeIsLogarithmicNotLinear) {
  // Lemma 15: worst-case awake O(log n): depth O(log log n) frames plus
  // one O(log n) base case.
  const VertexId n = 512;
  const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, 4);
  auto [metrics, outputs] = run_on(g, 6);
  EXPECT_LE(metrics.worst_awake(), 120u);  // ~ c log n, far below n
}

TEST(FastSleepingMisTest, SingleNode) {
  const Graph g = gen::empty(1);
  auto [metrics, outputs] = run_on(g, 1);
  EXPECT_EQ(outputs[0], 1);
}

TEST(FastSleepingMisTest, TwoNodesOneWins) {
  const Graph g = gen::path(2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto [metrics, outputs] = run_on(g, seed);
    EXPECT_EQ(outputs[0] + outputs[1], 1) << seed;
  }
}

TEST(FastSleepingMisTest, DeterministicGivenSeed) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 5);
  auto a = run_on(g, 88);
  auto b = run_on(g, 88);
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(FastSleepingMisTest, CongestBudgetRespected) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(128, 8.0, 6);
  auto [metrics, outputs] = run_on(g, 2);
  EXPECT_EQ(metrics.congest_violations, 0u);
}

TEST(FastSleepingMisTest, BaseRanksRecorded) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(32, 4.0, 7);
  RecursionTrace trace;
  run_on(g, 3, &trace);
  ASSERT_EQ(trace.base_rank.size(), 32u);
  // Ranks fit the declared bit width.
  const std::uint64_t limit = 1ULL << rank_bits_for(32);
  for (std::uint64_t r : trace.base_rank) EXPECT_LT(r, limit);
}

TEST(FastSleepingMisTest, RunMisTraceMatchesProtocolTrace) {
  // analysis::run_mis builds its protocol through algos::mis_protocol,
  // which must hand the trace to Algorithm 2 as the factory does.
  const Graph g = gen::gnp_avg_degree_sharded_csr(300, 8.0, 8);
  RecursionTrace via_run_mis;
  RecursionTrace via_factory;
  const auto run = analysis::run_mis(algos::MisEngine::kFastSleeping, g, 7,
                                     {.trace = &via_run_mis});
  const auto direct = run_on(g, 7, &via_factory);
  EXPECT_EQ(run.outputs, direct.outputs);
  EXPECT_EQ(via_run_mis.levels, via_factory.levels);
  EXPECT_EQ(via_run_mis.bits, via_factory.bits);
  EXPECT_EQ(via_run_mis.base_rank, via_factory.base_rank);
  ASSERT_FALSE(via_factory.calls.empty());
  ASSERT_EQ(via_run_mis.calls.size(), via_factory.calls.size());
  for (const auto& [key, stats] : via_factory.calls) {
    const auto it = via_run_mis.calls.find(key);
    ASSERT_NE(it, via_run_mis.calls.end())
        << "call (k=" << key.first << ", path=" << key.second << ")";
    EXPECT_EQ(it->second.participants, stats.participants);
    EXPECT_EQ(it->second.left, stats.left);
    EXPECT_EQ(it->second.right, stats.right);
    EXPECT_EQ(it->second.isolated_joins, stats.isolated_joins);
    EXPECT_EQ(it->second.first_round, stats.first_round);
  }
}

}  // namespace
}  // namespace slumber::core
