// Tests for Algorithm 1 (SleepingMIS): correctness (Lemma 1), the
// synchronization invariant (Condition 1), the lexicographically-first
// equivalence (Corollary 1), and the schedule (Lemma 10).
#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "core/rank.h"
#include "core/schedule.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::core {
namespace {

sim::RunResult run_on(const Graph& g, std::uint64_t seed,
                      RecursionTrace* trace = nullptr,
                      SleepingMisOptions options = {}) {
  sim::NetworkOptions net_options;
  net_options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  return sim::run_protocol(g, seed, sleeping_mis(options, trace), net_options);
}

TEST(SleepingMisTest, SingleNodeJoinsImmediately) {
  const Graph g = gen::empty(1);
  auto [metrics, outputs] = run_on(g, 1);
  EXPECT_EQ(outputs[0], 1);
  // K = 0 for n = 1: base case, zero rounds, zero awake time.
  EXPECT_EQ(metrics.node[0].awake_rounds, 0u);
  EXPECT_EQ(metrics.makespan, 0u);
}

TEST(SleepingMisTest, AllIsolatedNodesJoin) {
  const Graph g = gen::empty(6);
  auto [metrics, outputs] = run_on(g, 3);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(outputs[v], 1);
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
  // Isolated nodes decide at the top-level first detection: 1 awake round,
  // then they only do the cheap bookkeeping sends.
  EXPECT_EQ(metrics.node[0].decided_round, 1u);
  EXPECT_EQ(metrics.node[0].awake_at_decision, 1u);
}

TEST(SleepingMisTest, EdgePicksExactlyOneEndpoint) {
  // At n = 2 the auto depth K = 3 gives a 1/8 chance that both nodes
  // draw identical coins and collide in a base case -- the algorithm's
  // honest Monte Carlo failure mode (Lemma 1 is only w.h.p. in n). A
  // deeper tree drives the failure probability to 2^-12.
  const Graph g = gen::path(2);
  SleepingMisOptions options;
  options.levels = 12;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto [metrics, outputs] = run_on(g, seed, nullptr, options);
    EXPECT_EQ(outputs[0] + outputs[1], 1) << "seed " << seed;
  }
}

TEST(SleepingMisTest, TinyGraphFailureRateMatchesMonteCarloBound) {
  // Quantifies the note above: with K = 3 on a single edge, identical
  // coin sequences (probability 2^-3) put both endpoints in one base
  // case where both join. Measured failure rate must be near 1/8 --
  // and every failure must be of exactly that form (both chose 1).
  const Graph g = gen::path(2);
  int failures = 0;
  const int runs = 400;
  for (int seed = 0; seed < runs; ++seed) {
    auto [metrics, outputs] = run_on(g, static_cast<std::uint64_t>(seed));
    if (outputs[0] + outputs[1] != 1) {
      ++failures;
      EXPECT_EQ(outputs[0], 1);
      EXPECT_EQ(outputs[1], 1);
    }
  }
  EXPECT_NEAR(static_cast<double>(failures) / runs, 1.0 / 8.0, 0.05);
}

TEST(SleepingMisTest, ValidOnManyFamiliesAndSeeds) {
  for (gen::Family family : gen::core_families()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = gen::make(family, 80, seed);
      auto [metrics, outputs] = run_on(g, seed * 57 + 1);
      EXPECT_TRUE(analysis::check_mis(g, outputs).ok())
          << gen::family_name(family) << " seed " << seed << ": "
          << analysis::check_mis(g, outputs).describe();
    }
  }
}

TEST(SleepingMisTest, CompleteGraphYieldsSingleton) {
  const Graph g = gen::complete(17);
  auto [metrics, outputs] = run_on(g, 5);
  int count = 0;
  for (auto o : outputs) count += o == 1;
  EXPECT_EQ(count, 1);
}

TEST(SleepingMisTest, StarHubOrAllLeaves) {
  const Graph g = gen::star(12);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto [metrics, outputs] = run_on(g, seed);
    if (outputs[0] == 1) {
      for (VertexId v = 1; v < 12; ++v) EXPECT_EQ(outputs[v], 0);
    } else {
      for (VertexId v = 1; v < 12; ++v) EXPECT_EQ(outputs[v], 1);
    }
  }
}

TEST(SleepingMisTest, AllNodesFinishInSameRound) {
  // Lemma 1, Condition 1: every node returns from SleepingMIS in the
  // same round. With trailing sleeps accounted, finish == T(K) exactly.
  const Graph g = gen::gnp_avg_degree_sharded_csr(48, 6.0, 2);
  auto [metrics, outputs] = run_on(g, 11);
  const std::uint64_t expected = schedule_duration(recursion_depth(48));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(metrics.node[v].finish_round, expected) << v;
  }
}

TEST(SleepingMisTest, WorstCaseRoundsMatchLemma10) {
  // makespan == T(ceil(3 log2 n)) = 3(2^K - 1) ~ 3 n^3.
  for (const VertexId n : {8u, 32u}) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(n, 4.0, n);
    auto [metrics, outputs] = run_on(g, 77);
    EXPECT_EQ(metrics.makespan, schedule_duration(recursion_depth(n)));
  }
}

TEST(SleepingMisTest, MatchesLexicographicallyFirstMis) {
  // Corollary 1: SleepingMIS computes the lexicographically-first MIS
  // w.r.t. the order "decreasing K-rank".
  for (gen::Family family :
       {gen::Family::kGnpSparse, gen::Family::kCycle, gen::Family::kStar,
        gen::Family::kLollipop, gen::Family::kRandomTree}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = gen::make(family, 60, seed);
      RecursionTrace trace;
      auto [metrics, outputs] = run_on(g, seed * 13, &trace);
      const auto order = greedy_order_from_bits(trace.bits, trace.levels);
      const auto expected = lex_first_mis(g, order);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(outputs[v], static_cast<std::int64_t>(expected[v]))
            << gen::family_name(family) << " seed " << seed << " v " << v;
      }
    }
  }
}

TEST(SleepingMisTest, TraceCountsRootCall) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(40, 5.0, 3);
  RecursionTrace trace;
  run_on(g, 5, &trace);
  const auto& root = trace.calls.at({trace.levels, 0});
  EXPECT_EQ(root.participants, 40u);
  EXPECT_EQ(root.first_round, 1u);
  // Left + right participation at the root bounded by participants.
  EXPECT_LE(root.left + root.right, root.participants);
}

TEST(SleepingMisTest, TraceLevelSumsDecrease) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(120, 8.0, 4);
  RecursionTrace trace;
  run_on(g, 19, &trace);
  const auto z = trace.z_by_level();
  EXPECT_EQ(z[trace.levels], 120u);
  // Participation shrinks monotonically down the tree (each level's
  // participants are a subset of the previous one's L u R).
  for (std::uint32_t k = trace.levels; k >= 1; --k) {
    EXPECT_LE(z[k - 1], z[k]) << "level " << k;
  }
}

TEST(SleepingMisTest, DepthOverrideControlsSchedule) {
  // A forced shallow tree still terminates on the exact schedule and
  // decides every node (correctness degrades gracefully to Monte
  // Carlo: an under-deep tree may put adjacent nodes in one base case).
  const Graph g = gen::cycle(4);
  SleepingMisOptions options;
  options.levels = 2;
  auto [metrics, outputs] = run_on(g, 9, nullptr, options);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_TRUE(outputs[v] == 0 || outputs[v] == 1) << v;
  }
  EXPECT_EQ(metrics.makespan, schedule_duration(2));
}

TEST(SleepingMisTest, ModerateCoinBiasStillCorrect) {
  // The w.h.p. guarantee rests on distinct coin sequences; K = 3 log2 n
  // is calibrated for a fair coin. Moderate biases keep collisions
  // negligible (collision rate per pair (p^2 + q^2)^K); the extreme
  // ones are explored by bench_ablation_coin_bias, which counts
  // invalid runs instead of assuming none.
  const Graph g = gen::gnp_avg_degree_sharded_csr(40, 5.0, 6);
  for (double bias : {0.3, 0.5, 0.7}) {
    SleepingMisOptions options;
    options.coin_bias = bias;
    auto [metrics, outputs] = run_on(g, 21, nullptr, options);
    EXPECT_TRUE(analysis::check_mis(g, outputs).ok()) << "bias " << bias;
  }
}

TEST(SleepingMisTest, DeterministicGivenSeed) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 8);
  auto a = run_on(g, 1234);
  auto b = run_on(g, 1234);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.metrics.total_messages, b.metrics.total_messages);
}

TEST(SleepingMisTest, CongestBudgetRespected) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(100, 10.0, 10);
  auto [metrics, outputs] = run_on(g, 3);  // run_on enforces the budget
  EXPECT_EQ(metrics.congest_violations, 0u);
  EXPECT_LE(metrics.max_message_bits_seen, sim::congest_bits_for(100));
}

}  // namespace
}  // namespace slumber::core
