// Cross-validation of the bulk execution engine (src/bulk) against the
// coroutine scheduler (src/sim): same graph + same seed must produce
// bitwise-identical outputs AND bitwise-identical sim::Metrics — per
// node and aggregate — for every ported protocol, across generators,
// seeds, and coin biases. This is the contract that lets the bulk
// engine stand in for the reference implementation at 10M+-node scale.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/beeping_mis.h"
#include "algos/greedy.h"
#include "algos/israeli_itai.h"
#include "algos/luby.h"
#include "analysis/experiment.h"
#include "analysis/verify.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "bulk/sleeping_mis.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "metrics_test_util.h"
#include "sim/network.h"

namespace slumber {
namespace {

using analysis::ExecEngine;
using analysis::MisEngine;

void ExpectEnginesAgree(MisEngine engine, const Graph& g, std::uint64_t seed) {
  SCOPED_TRACE("engine=" + analysis::engine_name(engine) +
               " n=" + std::to_string(g.num_vertices()) +
               " seed=" + std::to_string(seed));
  const auto coro = analysis::run_mis(engine, g, seed);
  const auto bulk =
      analysis::run_mis(engine, g, seed, {.exec = ExecEngine::kBulk});
  EXPECT_EQ(coro.outputs, bulk.outputs);
  EXPECT_EQ(coro.valid, bulk.valid);
  EXPECT_EQ(coro.mis_size, bulk.mis_size);
  ExpectMetricsEqual(coro.metrics, bulk.metrics);
}

// --- the acceptance-criteria sweep: >= 3 generators x >= 20 seeds ----

class BulkCrossValidation : public ::testing::TestWithParam<gen::Family> {};

TEST_P(BulkCrossValidation, SleepingMisTwentySeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = gen::make(GetParam(), 600, seed);
    ExpectEnginesAgree(MisEngine::kSleeping, g, seed);
  }
}

TEST_P(BulkCrossValidation, SleepingMisTenThousandNodes) {
  const Graph g = gen::make(GetParam(), 10000, 5);
  ExpectEnginesAgree(MisEngine::kSleeping, g, 5);
}

TEST_P(BulkCrossValidation, BaselinesAgree) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::make(GetParam(), 256, seed);
    ExpectEnginesAgree(MisEngine::kLubyA, g, seed);
    ExpectEnginesAgree(MisEngine::kLubyB, g, seed);
    ExpectEnginesAgree(MisEngine::kGreedy, g, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, BulkCrossValidation,
                         ::testing::Values(gen::Family::kGnpSparse,
                                           gen::Family::kRandomTree,
                                           gen::Family::kUnitDisk,
                                           gen::Family::kStar,
                                           gen::Family::kGrid),
                         [](const auto& param_info) {
                           return gen::family_name(param_info.param);
                         });

// --- coin bias and forced recursion depth --------------------------

TEST(BulkSleepingMis, CoinBiasAblationAgrees) {
  for (const double bias : {0.25, 0.5, 0.75}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(400, 6.0, seed);
      core::SleepingMisOptions options;
      options.coin_bias = bias;
      sim::NetworkOptions net;
      net.max_message_bits = sim::congest_bits_for(g.num_vertices());
      const auto coro =
          sim::run_protocol(g, seed, core::sleeping_mis(options), net);
      bulk::BulkOptions bopts;
      bopts.max_message_bits = net.max_message_bits;
      const auto bulk_run =
          bulk::bulk_sleeping_mis(g, seed, options, nullptr, bopts);
      EXPECT_EQ(coro.outputs, bulk_run.outputs) << "bias=" << bias;
      ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
    }
  }
}

TEST(BulkSleepingMis, ForcedLevelsAgree) {
  for (const std::uint32_t levels : {1u, 2u, 6u}) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(128, 4.0, 42);
    core::SleepingMisOptions options;
    options.levels = levels;
    const auto coro = sim::run_protocol(g, 42, core::sleeping_mis(options));
    const auto bulk_run = bulk::bulk_sleeping_mis(g, 42, options);
    EXPECT_EQ(coro.outputs, bulk_run.outputs) << "levels=" << levels;
    ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
  }
}

// --- instrumentation: the recursion traces must match exactly -------

TEST(BulkSleepingMis, RecursionTraceMatches) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(300, 8.0, 7);
  core::RecursionTrace coro_trace;
  core::RecursionTrace bulk_trace;
  const auto coro =
      analysis::run_mis(MisEngine::kSleeping, g, 7, {.trace = &coro_trace});
  const auto bulk_run = analysis::run_mis(
      MisEngine::kSleeping, g, 7,
      {.exec = ExecEngine::kBulk, .trace = &bulk_trace});
  EXPECT_EQ(coro.outputs, bulk_run.outputs);
  EXPECT_EQ(coro_trace.levels, bulk_trace.levels);
  EXPECT_EQ(coro_trace.bits, bulk_trace.bits);
  ASSERT_EQ(coro_trace.calls.size(), bulk_trace.calls.size());
  for (const auto& [key, stats] : coro_trace.calls) {
    const auto it = bulk_trace.calls.find(key);
    ASSERT_NE(it, bulk_trace.calls.end())
        << "call (k=" << key.first << ", path=" << key.second
        << ") missing from bulk trace";
    EXPECT_EQ(stats.participants, it->second.participants);
    EXPECT_EQ(stats.left, it->second.left);
    EXPECT_EQ(stats.right, it->second.right);
    EXPECT_EQ(stats.isolated_joins, it->second.isolated_joins);
    EXPECT_EQ(stats.first_round, it->second.first_round);
  }
  EXPECT_EQ(coro_trace.z_by_level(), bulk_trace.z_by_level());
}

// --- protocols outside the MisEngine enum ---------------------------

TEST(BulkBaselines, IsraeliItaiMatchingAgrees) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(200, 5.0, seed);
    sim::NetworkOptions net;
    net.max_message_bits = sim::congest_bits_for(g.num_vertices());
    const auto coro =
        sim::run_protocol(g, seed, algos::israeli_itai_matching(), net);
    bulk::BulkOptions bopts;
    bopts.max_message_bits = net.max_message_bits;
    bulk::BulkIsraeliItai protocol;
    const auto bulk_run = bulk::run_bulk(g, seed, protocol, bopts);
    EXPECT_EQ(coro.outputs, bulk_run.outputs) << "seed=" << seed;
    ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
    const auto matching = algos::matching_from_outputs(g, bulk_run.outputs);
    ASSERT_TRUE(matching.has_value());
    EXPECT_TRUE(algos::is_maximal_matching(g, *matching));
  }
}

TEST(BulkBaselines, BeepingMisAgrees) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(100, 4.0, seed);
    sim::NetworkOptions net;
    net.max_message_bits = 1;
    const auto coro = sim::run_protocol(g, seed, algos::beeping_mis(), net);
    bulk::BulkOptions bopts;
    bopts.max_message_bits = 1;
    bulk::BulkBeepingMis protocol;
    const auto bulk_run = bulk::run_bulk(g, seed, protocol, bopts);
    EXPECT_EQ(coro.outputs, bulk_run.outputs) << "seed=" << seed;
    ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
    EXPECT_TRUE(analysis::check_mis(g, bulk_run.outputs).ok());
  }
}

TEST(BulkBaselines, IterationCapAgrees) {
  // A cap of 1 or 2 iterations runs out before most graphs are solved:
  // the nodes still active finish undecided at the last round, and both
  // engines must stamp them alike.
  bool left_undecided = false;
  for (const std::uint64_t cap : {1, 2}) {
    for (const gen::Family family :
         {gen::Family::kGnpSparse, gen::Family::kComplete,
          gen::Family::kPath}) {
      const Graph g = gen::make(family, 200, cap);
      sim::NetworkOptions net;
      net.max_message_bits = sim::congest_bits_for(g.num_vertices());
      bulk::BulkOptions bopts;
      bopts.max_message_bits = net.max_message_bits;
      const auto agree = [&](const char* name,
                             const sim::Protocol& coro_protocol,
                             bulk::BulkProtocol&& bulk_protocol, bool mis) {
        SCOPED_TRACE(std::string(name) + " " + gen::family_name(family) +
                     " cap=" + std::to_string(cap));
        const auto coro = sim::run_protocol(g, cap, coro_protocol, net);
        const auto bulk_run = bulk::run_bulk(g, cap, bulk_protocol, bopts);
        EXPECT_EQ(coro.outputs, bulk_run.outputs);
        ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
        if (mis) {
          for (const std::int64_t out : bulk_run.outputs) {
            left_undecided = left_undecided || out == -1;
          }
        }
      };
      agree("Luby-A", algos::luby_a({.max_iterations = cap}),
            bulk::BulkLubyA({.max_iterations = cap}), true);
      agree("Luby-B", algos::luby_b({.max_iterations = cap}),
            bulk::BulkLubyB({.max_iterations = cap}), true);
      agree("greedy", algos::distributed_greedy_mis({.max_iterations = cap}),
            bulk::BulkGreedy({.max_iterations = cap}), true);
      agree("Israeli-Itai",
            algos::israeli_itai_matching({.max_iterations = cap}),
            bulk::BulkIsraeliItai({.max_iterations = cap}), false);
      agree("beeping", algos::beeping_mis({.max_phases = cap}),
            bulk::BulkBeepingMis({.max_phases = cap}), true);
    }
  }
  EXPECT_TRUE(left_undecided);
}

TEST(BulkBaselines, BeepingMisValidPastSixtyFiveThousand) {
  // Past n = 65536 the composite beeping rank saturates its 64-bit
  // word: random bits are capped at 64 - id_bits so the bit auction
  // never shifts out of range (this runs under the UBSan CI job, which
  // would flag a reintroduced overlong shift). Bulk-only: the coroutine
  // engine is too slow at this n for a unit test, and the two engines
  // share the capping code path bit for bit.
  const Graph g = gen::gnp_avg_degree_sharded_csr(70000, 4.0, 3);
  bulk::BulkOptions bopts;
  bopts.max_message_bits = 1;
  bulk::BulkBeepingMis protocol;
  const auto run = bulk::run_bulk(g, 3, protocol, bopts);
  EXPECT_TRUE(analysis::check_mis(g, run.outputs).ok());
}

// --- edge cases and engine plumbing ---------------------------------

TEST(BulkEngine, EdgeCaseGraphsAgree) {
  ExpectEnginesAgree(MisEngine::kSleeping, gen::empty(0), 1);
  ExpectEnginesAgree(MisEngine::kSleeping, gen::empty(1), 1);
  ExpectEnginesAgree(MisEngine::kSleeping, gen::empty(50), 1);
  ExpectEnginesAgree(MisEngine::kSleeping, gen::complete(2), 1);
  ExpectEnginesAgree(MisEngine::kSleeping, gen::complete(40), 3);
  ExpectEnginesAgree(MisEngine::kSleeping, gen::star(64), 2);
  ExpectEnginesAgree(MisEngine::kSleeping, gen::path(2), 9);
  ExpectEnginesAgree(MisEngine::kLubyA, gen::empty(10), 1);
  ExpectEnginesAgree(MisEngine::kGreedy, gen::star(32), 4);
}

TEST(BulkEngine, DeterministicAcrossRuns) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(500, 8.0, 11);
  const auto first = analysis::run_mis(MisEngine::kSleeping, g, 11,
                                       {.exec = ExecEngine::kBulk});
  const auto second = analysis::run_mis(MisEngine::kSleeping, g, 11,
                                        {.exec = ExecEngine::kBulk});
  EXPECT_EQ(first.outputs, second.outputs);
  ExpectMetricsEqual(first.metrics, second.metrics);
}

TEST(BulkEngine, UnsupportedEngineThrows) {
  const Graph g = gen::path(8);
  EXPECT_THROW(analysis::run_mis(MisEngine::kFastSleeping, g, 1,
                                 {.exec = ExecEngine::kBulk}),
               std::invalid_argument);
  EXPECT_THROW(analysis::run_mis(MisEngine::kGhaffari, g, 1,
                                 {.exec = ExecEngine::kBulk}),
               std::invalid_argument);
  EXPECT_FALSE(analysis::engine_supports_bulk(MisEngine::kFastSleeping));
  EXPECT_TRUE(analysis::engine_supports_bulk(MisEngine::kSleeping));
}

TEST(BulkEngine, CongestViolationThrows) {
  // A 1-bit budget rejects the sleeping algorithm's 8-bit hellos, same
  // as the coroutine engine's Network would.
  const Graph g = gen::path(4);
  bulk::BulkOptions bopts;
  bopts.max_message_bits = 1;
  EXPECT_THROW(bulk::bulk_sleeping_mis(g, 1, {}, nullptr, bopts),
               sim::CongestViolation);
  bopts.throw_on_congest_violation = false;
  const auto run = bulk::bulk_sleeping_mis(g, 1, {}, nullptr, bopts);
  EXPECT_GT(run.metrics.congest_violations, 0u);
}

TEST(BulkEngine, RunTrialsBulkMatchesCoroutine) {
  const auto factory = [](std::uint64_t seed) {
    return gen::gnp_avg_degree_sharded_csr(200, 6.0, seed);
  };
  const auto coro = analysis::run_trials(
      MisEngine::kSleeping, factory, 77, 4,
      {.exec = ExecEngine::kCoroutine, .num_threads = 1});
  const auto bulk_runs = analysis::run_trials(
      MisEngine::kSleeping, factory, 77, 4,
      {.exec = ExecEngine::kBulk, .num_threads = 1});
  ASSERT_EQ(coro.size(), bulk_runs.size());
  for (std::size_t i = 0; i < coro.size(); ++i) {
    EXPECT_EQ(coro[i].outputs, bulk_runs[i].outputs) << "trial " << i;
    EXPECT_EQ(coro[i].seed, bulk_runs[i].seed);
    ExpectMetricsEqual(coro[i].metrics, bulk_runs[i].metrics);
  }
}

}  // namespace
}  // namespace slumber
