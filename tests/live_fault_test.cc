// Live-dynamics determinism suite (fault/fault.h live churn, crash
// recovery, and burst-correlated loss; bulk/engine.cc apply_dynamics).
//
// Pins the contracts the live-fault layer is built around:
//   1. the Gilbert–Elliott burst channel is a pure symmetric function
//      of (edge, epoch) with the chain's stationary loss rate and
//      persistence, identical on both execution back ends;
//   2. recovery downtimes are keyed geometric draws with the requested
//      mean;
//   3. a bulk run under any mix of burst loss, live churn, and crash
//      recovery is bitwise identical at every lane count (the mid-run
//      membership edits ride the same sharded-scan merge discipline as
//      everything else);
//   4. after a live-dynamics run, the experiment layer repairs the
//      survivors' MIS so MisRun::valid refers to the final alive
//      subgraph;
//   5. the coroutine back end rejects live churn and recovery (burst
//      loss, which needs no membership edits, it accepts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
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

// --- burst channel unit contracts -----------------------------------

TEST(BurstLoss, ChannelIsPureSymmetricAndEpochConstant) {
  fault::FaultPlan plan;
  plan.burst = {.p_on = 0.1, .p_off = 0.3, .epoch_len = 5};
  const fault::FaultState fs(&plan, 42, 1000);
  for (VertexId a = 0; a < 12; ++a) {
    for (VertexId b = a + 1; b < 12; ++b) {
      for (std::uint64_t epoch = 0; epoch < 20; ++epoch) {
        const std::uint64_t start = epoch * plan.burst.epoch_len;
        const bool bad = fs.burst_bad(a, b, start, 0);
        EXPECT_EQ(bad, fs.burst_bad(b, a, start, 0));  // symmetric
        EXPECT_EQ(bad, fs.burst_bad(a, b, start, 0));  // pure
        for (std::uint64_t r = 1; r < plan.burst.epoch_len; ++r) {
          EXPECT_EQ(bad, fs.burst_bad(a, b, start + r, 0));  // one state/epoch
        }
      }
    }
  }
}

TEST(BurstLoss, HitsStationaryLossRate) {
  fault::FaultPlan plan;
  plan.burst = {.p_on = 0.1, .p_off = 0.3, .epoch_len = 4};
  const fault::FaultState fs(&plan, 7, 1 << 20);
  std::uint64_t bad = 0;
  std::uint64_t draws = 0;
  for (VertexId e = 0; e < 1000; ++e) {
    for (std::uint64_t epoch = 0; epoch < 100; ++epoch) {
      bad += fs.burst_bad(e, e + 1, epoch * plan.burst.epoch_len, 0) ? 1 : 0;
      ++draws;
    }
  }
  EXPECT_NEAR(static_cast<double>(bad) / static_cast<double>(draws),
              plan.burst.stationary_loss(), 0.02);  // pi = 0.25
}

// Adjacent epochs are positively correlated: a bad epoch stays bad with
// probability 1 - p_off (the Gilbert–Elliott transition), far above the
// stationary rate — that is the "burst" in burst loss.
TEST(BurstLoss, BadEpochsPersist) {
  fault::FaultPlan plan;
  plan.burst = {.p_on = 0.1, .p_off = 0.3, .epoch_len = 3};
  const fault::FaultState fs(&plan, 11, 1 << 20);
  std::uint64_t bad_then_bad = 0;
  std::uint64_t bad_total = 0;
  for (VertexId e = 0; e < 1500; ++e) {
    bool prev = fs.burst_bad(e, e + 1, 0, 0);
    for (std::uint64_t epoch = 1; epoch < 60; ++epoch) {
      const bool cur =
          fs.burst_bad(e, e + 1, epoch * plan.burst.epoch_len, 0);
      // Forced-renewal grid epochs regenerate unconditionally; skip
      // them so the estimate measures the chain itself.
      if (epoch % fault::kBurstRenewalGrid != 0 && prev) {
        ++bad_total;
        bad_then_bad += cur ? 1 : 0;
      }
      prev = cur;
    }
  }
  ASSERT_GT(bad_total, 1000u);
  const double persist =
      static_cast<double>(bad_then_bad) / static_cast<double>(bad_total);
  EXPECT_NEAR(persist, 1.0 - plan.burst.p_off, 0.05);  // 0.7 vs pi = 0.25
  EXPECT_GT(persist, 2.0 * plan.burst.stationary_loss());
}

TEST(BurstLoss, EnginesAgreeBitwise) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(500, 6.0, 23);
  fault::FaultPlan plan;
  plan.burst = {.p_on = 0.05, .p_off = 0.25, .epoch_len = 4};
  plan.loss_prob = 0.01;  // compose with memoryless loss
  for (const MisEngine engine :
       {MisEngine::kSleeping, MisEngine::kLubyA, MisEngine::kLubyB,
        MisEngine::kGreedy}) {
    SCOPED_TRACE(analysis::engine_name(engine));
    const auto coro = analysis::run_mis(engine, g, 101, {.fault = &plan});
    const auto bulk_run = analysis::run_mis(
        engine, g, 101, {.exec = ExecEngine::kBulk, .fault = &plan});
    EXPECT_EQ(coro.outputs, bulk_run.outputs);
    EXPECT_EQ(coro.valid, bulk_run.valid);
    ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
  }
}

// --- recovery downtime draws ----------------------------------------

TEST(Recovery, DowntimeIsGeometricWithRequestedMean) {
  fault::FaultPlan plan;
  plan.crash_prob = 0.01;
  plan.recover.mean_down = 8;
  const fault::FaultState fs(&plan, 3, 1 << 20);
  double sum = 0.0;
  std::uint64_t min_seen = ~0ull;
  const std::uint64_t samples = 20000;
  for (std::uint64_t i = 0; i < samples; ++i) {
    const std::uint64_t d =
        fs.recover_downtime(static_cast<VertexId>(i % 4096), i / 4096, 0);
    sum += static_cast<double>(d);
    min_seen = std::min(min_seen, d);
  }
  EXPECT_EQ(min_seen, 1u);  // support starts at one round down
  EXPECT_NEAR(sum / static_cast<double>(samples), 8.0, 0.3);
}

// --- lane-independence of live-dynamics runs ------------------------

struct NamedPlan {
  std::string name;
  fault::FaultPlan plan;
};

std::vector<NamedPlan> live_plans() {
  std::vector<NamedPlan> plans(4);
  plans[0].name = "burst";
  plans[0].plan.burst = {.p_on = 0.05, .p_off = 0.2, .epoch_len = 4};
  plans[1].name = "live-churn";
  plans[1].plan.live_churn = {.leave_prob = 0.004, .join_prob = 0.2};
  plans[2].name = "recover";
  plans[2].plan.crash_prob = 0.003;
  plans[2].plan.crash_schedule = {{3, 5}, {11, 2}};
  plans[2].plan.recover.mean_down = 6;
  plans[3].name = "all";
  plans[3].plan.burst = {.p_on = 0.05, .p_off = 0.2, .epoch_len = 4};
  plans[3].plan.live_churn = {.leave_prob = 0.003, .join_prob = 0.25};
  plans[3].plan.crash_prob = 0.002;
  plans[3].plan.recover.mean_down = 6;
  return plans;
}

// Every bulk protocol under burst loss, live churn, crash recovery, and
// the three combined: lane counts 2, 3, and 8 must reproduce the serial
// run bit for bit, even with one-node chunks.
TEST(LiveFaultLaneMatrix, BulkRunsAreLaneCountIndependent) {
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

  for (const NamedPlan& np : live_plans()) {
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
        EXPECT_EQ(serial.departed, run.departed);
        EXPECT_TRUE(serial.virtual_makespan == run.virtual_makespan);
        ExpectMetricsEqual(serial.metrics, run.metrics);
      }
    }
  }
}

// --- end-to-end live-dynamics runs ----------------------------------

TEST(LiveChurn, LeaversRejoinAndFinalMisIsRepairedValid) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(500, 8.0, 29);
  fault::FaultPlan plan;
  plan.live_churn = {.leave_prob = 0.005, .join_prob = 0.2};
  const auto run = analysis::run_mis(MisEngine::kSleeping, g, 55,
                                     {.exec = ExecEngine::kBulk,
                                      .fault = &plan});
  EXPECT_GT(run.metrics.live_leaves, 0u);
  EXPECT_GT(run.metrics.live_rejoins, 0u);
  ASSERT_EQ(run.alive.size(), g.num_vertices());
  // run_mis repaired the survivors' outputs; validity refers to the
  // final alive subgraph.
  EXPECT_TRUE(run.valid);
  EXPECT_TRUE(analysis::check_mis(g, run.outputs, nullptr, run.alive).ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (run.alive[v]) {
      EXPECT_TRUE(run.outputs[v] == 0 || run.outputs[v] == 1) << v;
    }
  }
}

TEST(Recovery, CrashedNodesComeBackAndFinalMisIsValid) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(500, 8.0, 37);
  fault::FaultPlan plan;
  plan.crash_prob = 0.004;
  plan.recover.mean_down = 5;
  const auto run = analysis::run_mis(MisEngine::kSleeping, g, 91,
                                     {.exec = ExecEngine::kBulk,
                                      .fault = &plan});
  EXPECT_GT(run.metrics.recovered_nodes, 0u);
  EXPECT_TRUE(run.valid);
  EXPECT_TRUE(analysis::check_mis(g, run.outputs, nullptr, run.alive).ok());
  // The crashed flag means "currently down": every node recorded as
  // crashed in the final metrics is dead in the alive mask and vice
  // versa (no departures in this plan).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(run.metrics.node[v].crashed, run.alive[v] == 0) << v;
  }
}

TEST(LiveChurn, AllThreeDynamicsComposeOnEveryBulkProtocol) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 8.0, 41);
  fault::FaultPlan plan;
  plan.burst = {.p_on = 0.05, .p_off = 0.2, .epoch_len = 4};
  plan.live_churn = {.leave_prob = 0.003, .join_prob = 0.25};
  plan.crash_prob = 0.002;
  plan.recover.mean_down = 6;
  for (const MisEngine engine :
       {MisEngine::kSleeping, MisEngine::kLubyA, MisEngine::kLubyB,
        MisEngine::kGreedy}) {
    SCOPED_TRACE(analysis::engine_name(engine));
    const auto run = analysis::run_mis(engine, g, 17,
                                       {.exec = ExecEngine::kBulk,
                                        .fault = &plan});
    // Whatever damage the dynamics did, the final repair leaves a
    // valid MIS of the survivors.
    EXPECT_TRUE(run.valid);
    EXPECT_TRUE(analysis::check_mis(g, run.outputs, nullptr, run.alive).ok());
    EXPECT_GT(run.metrics.injected_losses, 0u);
  }
}

TEST(LiveChurn, CoroutineBackEndRejectsLiveDynamics) {
  const Graph g = gen::cycle(8);
  fault::FaultPlan churny;
  churny.live_churn = {.leave_prob = 0.1, .join_prob = 0.5};
  EXPECT_THROW(
      analysis::run_mis(MisEngine::kSleeping, g, 1, {.fault = &churny}),
      std::invalid_argument);
  fault::FaultPlan recovering;
  recovering.crash_prob = 0.1;
  recovering.recover.mean_down = 4;
  EXPECT_THROW(
      analysis::run_mis(MisEngine::kSleeping, g, 1, {.fault = &recovering}),
      std::invalid_argument);
  // Burst loss needs no membership edits; the coroutine runs it.
  fault::FaultPlan bursty;
  bursty.burst = {.p_on = 0.1, .p_off = 0.3, .epoch_len = 4};
  EXPECT_NO_THROW(
      analysis::run_mis(MisEngine::kSleeping, g, 1, {.fault = &bursty}));
}

}  // namespace
}  // namespace slumber
