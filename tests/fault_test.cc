// Fault-layer determinism suite (fault/fault.h, fault/churn.h).
//
// Pins the three contracts the layer is built around:
//   1. lane-independence — a faulty bulk run is bitwise identical at
//      every lane count (the fault draws are keyed pure functions, so
//      chunk-local evaluation merged in chunk order cannot depend on
//      the sharding);
//   2. engine-independence — the coroutine scheduler and the bulk
//      engine facing the same FaultPlan and seed crash the same nodes
//      at the same rounds, lose the same messages, and produce the
//      same outputs and metrics bit for bit;
//   3. churn repair — after every churn batch the repaired output is a
//      correct MIS of the alive-induced subgraph, and the whole churn
//      trajectory is lane-count-independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/verify.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "fault/churn.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "metrics_test_util.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

using analysis::ExecEngine;
using analysis::MisEngine;

// --- FaultState unit contracts --------------------------------------

TEST(FaultState, LossDrawIsSymmetricAndPure) {
  fault::FaultPlan plan;
  plan.loss_prob = 0.5;
  const fault::FaultState fs(&plan, 42, 1000);
  for (VertexId a = 0; a < 20; ++a) {
    for (VertexId b = a + 1; b < 20; ++b) {
      for (std::uint64_t round = 1; round < 8; ++round) {
        const bool down = fs.link_down(a, b, round, 0);
        EXPECT_EQ(down, fs.link_down(b, a, round, 0));
        EXPECT_EQ(down, fs.link_down(a, b, round, 0));  // pure
      }
    }
  }
}

TEST(FaultState, LossRateMatchesProbability) {
  fault::FaultPlan plan;
  plan.loss_prob = 0.1;
  const fault::FaultState fs(&plan, 7, 1 << 20);
  std::uint64_t down = 0;
  const std::uint64_t draws = 20000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    down += fs.link_down(static_cast<VertexId>(i), static_cast<VertexId>(i) + 1,
                         i % 97, 0)
                ? 1
                : 0;
  }
  EXPECT_NEAR(static_cast<double>(down) / static_cast<double>(draws), 0.1,
              0.01);
}

TEST(FaultState, ScheduleEarliestRoundWinsAndClipsOutOfRange) {
  fault::FaultPlan plan;
  plan.crash_schedule = {{5, 10}, {5, 4}, {999, 1}};
  const fault::FaultState fs(&plan, 3, 10);  // node 999 >= n: dropped
  EXPECT_FALSE(fs.crashes_now(5, 3, 0));
  EXPECT_TRUE(fs.crashes_now(5, 4, 0));
  EXPECT_TRUE(fs.crashes_now(5, 11, 0));
  // A 128-bit round with a non-zero high half is past any 64-bit
  // schedule entry.
  EXPECT_TRUE(fs.crashes_now(5, 0, 1));
  EXPECT_FALSE(fs.crashes_now(9, 100, 0));
}

TEST(FaultState, SaltSeparatesStreams) {
  fault::FaultPlan a;
  a.loss_prob = 0.5;
  fault::FaultPlan b = a;
  b.salt = 1;
  const fault::FaultState fa(&a, 42, 100);
  const fault::FaultState fb(&b, 42, 100);
  std::uint64_t differ = 0;
  for (std::uint64_t round = 0; round < 200; ++round) {
    differ += fa.link_down(1, 2, round, 0) != fb.link_down(1, 2, round, 0);
  }
  EXPECT_GT(differ, 0u);
}

// --- lane-independence of faulty bulk runs --------------------------

struct NamedPlan {
  std::string name;
  fault::FaultPlan plan;
};

std::vector<NamedPlan> fault_plans() {
  std::vector<NamedPlan> plans(3);
  plans[0].name = "crash";
  plans[0].plan.crash_schedule = {{3, 5}, {11, 2}};
  plans[0].plan.crash_prob = 0.002;
  plans[1].name = "loss";
  plans[1].plan.loss_prob = 0.05;
  plans[2].name = "crash+loss";
  plans[2].plan.crash_prob = 0.002;
  plans[2].plan.loss_prob = 0.05;
  return plans;
}

// Every bulk protocol (the four MIS engines plus Israeli–Itai and the
// beeping variant) under every plan: lane counts 2, 3, and 8 must
// reproduce the serial run bit for bit, even with one-node chunks.
TEST(FaultLaneMatrix, BulkRunsAreLaneCountIndependent) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 8.0, 19);
  struct Entry {
    std::string name;
    std::unique_ptr<bulk::BulkProtocol> protocol;
  };
  std::vector<Entry> protocols;
  for (const MisEngine engine :
       {MisEngine::kSleeping, MisEngine::kLubyA, MisEngine::kLubyB,
        MisEngine::kGreedy}) {
    protocols.push_back({analysis::engine_name(engine),
                         bulk::bulk_mis_protocol(engine, nullptr)});
  }
  protocols.push_back({"israeli-itai",
                       std::make_unique<bulk::BulkIsraeliItai>()});
  protocols.push_back({"beeping", std::make_unique<bulk::BulkBeepingMis>()});

  for (const NamedPlan& np : fault_plans()) {
    for (const Entry& entry : protocols) {
      bulk::BulkOptions base;
      base.max_message_bits = 0;
      base.parallel_cutoff = 1;  // shard even one-node frames
      base.fault = &np.plan;
      const bulk::BulkResult serial =
          bulk::run_bulk(g, 77, *entry.protocol, base);
      for (const unsigned lanes : {2u, 3u, 8u}) {
        util::ThreadPool pool(lanes);
        bulk::BulkOptions options = base;
        options.pool = &pool;
        const bulk::BulkResult run =
            bulk::run_bulk(g, 77, *entry.protocol, options);
        SCOPED_TRACE(entry.name + " / " + np.name + " / lanes " +
                     std::to_string(lanes));
        EXPECT_EQ(serial.outputs, run.outputs);
        EXPECT_EQ(serial.crashed, run.crashed);
        EXPECT_TRUE(serial.virtual_makespan == run.virtual_makespan);
        ExpectMetricsEqual(serial.metrics, run.metrics);
      }
    }
  }
}

// --- engine-independence --------------------------------------------

// The coroutine scheduler and the bulk engine share every fault draw:
// same crashed nodes, same lost messages, same outputs, same metrics.
TEST(CrossEngineFault, EnginesAgreeBitwiseUnderSharedPlans) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(600, 6.0, 23);
  for (const NamedPlan& np : fault_plans()) {
    for (const MisEngine engine :
         {MisEngine::kSleeping, MisEngine::kLubyA, MisEngine::kLubyB,
          MisEngine::kGreedy}) {
      SCOPED_TRACE(analysis::engine_name(engine) + " / " + np.name);
      const auto coro = analysis::run_mis(engine, g, 101,
                                          {.fault = &np.plan});
      const auto bulk_run = analysis::run_mis(
          engine, g, 101, {.exec = ExecEngine::kBulk, .fault = &np.plan});
      EXPECT_EQ(coro.outputs, bulk_run.outputs);
      EXPECT_EQ(coro.alive, bulk_run.alive);
      EXPECT_EQ(coro.valid, bulk_run.valid);
      ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
    }
  }
}

// --- churn ----------------------------------------------------------

TEST(Churn, RepairedOutputIsValidMisOfAliveSubgraph) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(500, 8.0, 29);
  fault::FaultPlan plan;
  plan.churn.leave_prob = 0.3;
  plan.churn.join_prob = 0.5;
  plan.churn.batches = 3;
  plan.loss_prob = 0.02;  // arrive at churn with loss damage too
  const auto run = analysis::run_mis(MisEngine::kSleeping, g, 55,
                                     {.exec = ExecEngine::kBulk,
                                      .fault = &plan});
  // run_churn checks the invariant after the initial repair and after
  // every batch; `valid` is the conjunction.
  EXPECT_TRUE(run.valid);
  ASSERT_EQ(run.alive.size(), g.num_vertices());
  EXPECT_EQ(run.metrics.churn_batches, 3u);
  EXPECT_GT(run.metrics.churn_leaves, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (run.alive[v]) {
      EXPECT_TRUE(run.outputs[v] == 0 || run.outputs[v] == 1) << v;
    } else {
      EXPECT_EQ(run.outputs[v], -1) << v;
    }
  }
  // And the invariant really holds on the final state.
  EXPECT_TRUE(analysis::check_mis(g, run.outputs, nullptr, run.alive).ok());
}

TEST(Churn, TrajectoryIsLaneCountIndependent) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 8.0, 31);
  fault::FaultPlan plan;
  plan.churn.leave_prob = 0.25;
  plan.churn.join_prob = 0.4;
  plan.churn.batches = 4;
  plan.crash_prob = 0.001;
  const auto serial = analysis::run_mis(MisEngine::kLubyA, g, 13,
                                        {.exec = ExecEngine::kBulk,
                                         .fault = &plan});
  for (const unsigned lanes : {2u, 3u, 8u}) {
    util::ThreadPool pool(lanes);
    const auto run = analysis::run_mis(MisEngine::kLubyA, g, 13,
                                       {.exec = ExecEngine::kBulk,
                                        .pool = &pool,
                                        .fault = &plan});
    SCOPED_TRACE(lanes);
    EXPECT_EQ(serial.outputs, run.outputs);
    EXPECT_EQ(serial.alive, run.alive);
    EXPECT_EQ(serial.valid, run.valid);
    EXPECT_EQ(serial.metrics.churn_leaves, run.metrics.churn_leaves);
    EXPECT_EQ(serial.metrics.churn_joins, run.metrics.churn_joins);
    EXPECT_EQ(serial.metrics.churn_repair_rounds,
              run.metrics.churn_repair_rounds);
  }
}

TEST(Churn, CoroutineBackEndRejectsChurn) {
  const Graph g = gen::cycle(8);
  fault::FaultPlan plan;
  plan.churn.leave_prob = 0.5;
  plan.churn.batches = 1;
  EXPECT_THROW(analysis::run_mis(MisEngine::kSleeping, g, 1, {.fault = &plan}),
               std::invalid_argument);
}

// --- run_trials under faults ----------------------------------------

// Faulty multi-trial batches stay bitwise identical across trial-lane
// counts, and the serial path's forwarded intra-trial pool does not
// change results either.
TEST(FaultTrials, TrialBatchesAreThreadCountIndependent) {
  fault::FaultPlan plan;
  plan.crash_prob = 0.002;
  plan.loss_prob = 0.03;
  const auto factory = [](std::uint64_t seed) {
    return gen::gnp_avg_degree_sharded_csr(200, 6.0, seed);
  };
  const auto serial =
      analysis::run_trials(MisEngine::kGreedy, factory, 900, 8,
                           {.exec = ExecEngine::kBulk, .num_threads = 1,
                            .fault = &plan});
  util::ThreadPool pool(3);
  const auto serial_pooled =
      analysis::run_trials(MisEngine::kGreedy, factory, 900, 8,
                           {.exec = ExecEngine::kBulk, .num_threads = 1,
                            .pool = &pool, .fault = &plan});
  const auto wide =
      analysis::run_trials(MisEngine::kGreedy, factory, 900, 8,
                           {.exec = ExecEngine::kBulk, .num_threads = 4,
                            .fault = &plan});
  ASSERT_EQ(serial.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].outputs, serial_pooled[i].outputs);
    EXPECT_EQ(serial[i].outputs, wide[i].outputs);
    EXPECT_EQ(serial[i].alive, wide[i].alive);
    ExpectMetricsEqual(serial[i].metrics, wide[i].metrics);
  }
}

}  // namespace
}  // namespace slumber
