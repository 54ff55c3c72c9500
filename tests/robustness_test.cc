// Failure-injection suite: what happens to the algorithms when the
// synchronous-reliable assumption of the model breaks (lossy wireless
// links, the paper's motivating physical layer).
//
// The findings these tests lock in:
//   * loss = 0 is the baseline: everything valid (covered elsewhere);
//   * the simulator's injection is deterministic in the seed and hits
//     the declared rate;
//   * under loss, SleepingMIS can produce INVALID outputs (a missed
//     elimination message breaks independence) -- the algorithms are
//     designed for the reliable model, and the suite quantifies the
//     sensitivity instead of hiding it;
//   * termination is preserved under loss for the fixed-schedule
//     algorithms (they never wait on a message), and the verifier
//     catches every corruption.
#include <gtest/gtest.h>

#include "algos/greedy.h"
#include "analysis/verify.h"
#include "core/sleeping_mis.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::sim {
namespace {

TEST(RobustnessTest, LossRateMatchesConfiguredProbability) {
  const Graph g = gen::complete(20);
  auto protocol = [](Context& ctx) -> Task {
    for (int i = 0; i < 50; ++i) co_await ctx.broadcast(Message::hello());
    ctx.decide(1);
  };
  fault::FaultPlan plan;
  plan.loss_prob = 0.3;
  NetworkOptions options;
  options.fault = &plan;
  Network net(g, 5, options);
  const Metrics& metrics = net.run(protocol);
  const double sent = 20.0 * 19.0 * 50.0;
  const double loss_rate =
      static_cast<double>(metrics.injected_losses) / sent;
  EXPECT_NEAR(loss_rate, 0.3, 0.02);
  EXPECT_EQ(metrics.total_messages + metrics.injected_losses,
            static_cast<std::uint64_t>(sent));
}

TEST(RobustnessTest, ZeroLossInjectsNothing) {
  const Graph g = gen::cycle(8);
  auto protocol = [](Context& ctx) -> Task {
    co_await ctx.broadcast(Message::hello());
    ctx.decide(1);
  };
  fault::FaultPlan plan;
  plan.loss_prob = 0.0;
  NetworkOptions options;
  options.fault = &plan;
  Network net(g, 5, options);
  EXPECT_EQ(net.run(protocol).injected_losses, 0u);
}

TEST(RobustnessTest, InjectionDeterministicInSeed) {
  const Graph g = gen::complete(10);
  auto protocol = [](Context& ctx) -> Task {
    Inbox inbox = co_await ctx.broadcast(Message::hello());
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  fault::FaultPlan plan;
  plan.loss_prob = 0.5;
  NetworkOptions options;
  options.fault = &plan;
  Network a(g, 77, options);
  Network b(g, 77, options);
  a.run(protocol);
  b.run(protocol);
  EXPECT_EQ(a.outputs(), b.outputs());
  EXPECT_EQ(a.metrics().injected_losses, b.metrics().injected_losses);
}

TEST(RobustnessTest, SleepingMisTerminatesUnderLoss) {
  // The schedule is fixed (sleep durations are computed, not awaited),
  // so even heavy loss cannot deadlock Algorithm 1: every node still
  // finishes at exactly T(K).
  const Graph g = gen::gnp_avg_degree_sharded_csr(48, 6.0, 4);
  fault::FaultPlan plan;
  plan.loss_prob = 0.5;
  NetworkOptions options;
  options.fault = &plan;
  Network net(g, 9, options);
  const Metrics& metrics = net.run(core::sleeping_mis());
  const std::uint64_t expected_finish = metrics.node[0].finish_round;
  for (const NodeMetrics& m : metrics.node) {
    EXPECT_EQ(m.finish_round, expected_finish);
  }
}

TEST(RobustnessTest, SleepingMisCorruptsUnderHeavyLossAndVerifierCatchesIt) {
  // A dropped InMIS/status message means a dominated node never learns
  // it should be eliminated: with 30% loss on a dense-ish graph the
  // output is invalid for most seeds. This test documents (a) the
  // sensitivity and (b) that our verifier detects it.
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 8.0, 6);
  int invalid = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    fault::FaultPlan plan;
    plan.loss_prob = 0.3;
    NetworkOptions options;
    options.fault = &plan;
    Network net(g, seed, options);
    net.run(core::sleeping_mis());
    if (!analysis::check_mis(g, net.outputs()).ok()) ++invalid;
  }
  EXPECT_GE(invalid, 5);
}

TEST(RobustnessTest, LightLossOftenSurvivable) {
  // At 1% loss on a sparse graph many runs still verify: corruption
  // requires losing one of the few decisive messages.
  const Graph g = gen::gnp_avg_degree_sharded_csr(48, 4.0, 8);
  int valid = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fault::FaultPlan plan;
    plan.loss_prob = 0.01;
    NetworkOptions options;
    options.fault = &plan;
    Network net(g, seed, options);
    net.run(core::sleeping_mis());
    valid += analysis::check_mis(g, net.outputs()).ok() ? 1 : 0;
  }
  EXPECT_GE(valid, 8);
}

TEST(RobustnessTest, GreedyIndependenceCanBreakButTerminates) {
  // CRT greedy under loss: a lost announcement lets a dominated node
  // later win vacuously -- adjacency in the MIS. Termination is still
  // guaranteed by the iteration cap. We require only termination +
  // verifier detection here.
  const Graph g = gen::gnp_avg_degree_sharded_csr(40, 6.0, 10);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    fault::FaultPlan plan;
    plan.loss_prob = 0.2;
    NetworkOptions options;
    options.fault = &plan;
    Network net(g, seed, options);
    const Metrics& metrics = net.run(algos::distributed_greedy_mis());
    EXPECT_GT(metrics.makespan, 0u);
    analysis::check_mis(g, net.outputs());  // must not crash
  }
}

TEST(RobustnessTest, TraceRecordsInjectedLosses) {
  const Graph g = gen::complete(12);
  RingTrace trace(10'000);
  auto protocol = [](Context& ctx) -> Task {
    for (int i = 0; i < 10; ++i) co_await ctx.broadcast(Message::hello());
    ctx.decide(1);
  };
  fault::FaultPlan plan;
  plan.loss_prob = 0.25;
  NetworkOptions options;
  options.fault = &plan;
  options.trace = &trace;
  Network net(g, 3, options);
  const Metrics& metrics = net.run(protocol);
  EXPECT_EQ(trace.count(TraceEventKind::kDropFault), metrics.injected_losses);
  EXPECT_GT(metrics.injected_losses, 0u);
}

}  // namespace
}  // namespace slumber::sim
