// Crash (fail-stop) injection suite.
//
// The paper's algorithms assume reliable, non-faulty nodes; this suite
// locks in (a) the mechanics of the injection itself, and (b) the
// graceful-degradation facts: crashes never deadlock a fixed-schedule
// algorithm, decided outputs survive the crash of their node, and the
// damage of a crash is local (confined to the crashed node's
// neighborhood) for the MIS protocols.
#include <gtest/gtest.h>

#include <tuple>

#include "algos/greedy.h"
#include "algos/luby.h"
#include "analysis/verify.h"
#include "core/sleeping_mis.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::sim {
namespace {

Task chatter_protocol(Context& ctx) {
  for (int i = 0; i < 20; ++i) co_await ctx.broadcast(Message::hello());
  ctx.decide(1);
}

TEST(CrashFaultTest, ScheduledCrashSilencesNode) {
  const Graph g = gen::path(3);  // 0-1-2
  fault::FaultPlan plan;
  plan.crash_schedule = {{1, 5}};
  NetworkOptions options;
  options.fault = &plan;
  Network net(g, 1, options);
  const Metrics& metrics = net.run(chatter_protocol);
  EXPECT_EQ(metrics.crashed_nodes, 1u);
  EXPECT_TRUE(metrics.node[1].crashed);
  EXPECT_FALSE(metrics.node[0].crashed);
  // Node 1 was awake rounds 1..4 only.
  EXPECT_EQ(metrics.node[1].awake_rounds, 4u);
  EXPECT_EQ(metrics.node[1].finish_round, 5u);
  // Survivors run to completion.
  EXPECT_EQ(metrics.node[0].awake_rounds, 20u);
  // After round 5 node 0's messages to 1 are dropped, not delivered.
  EXPECT_GT(metrics.dropped_messages, 0u);
}

TEST(CrashFaultTest, CrashAtRoundOneSendsNothing) {
  const Graph g = gen::complete(2);
  fault::FaultPlan plan;
  plan.crash_schedule = {{0, 1}};
  NetworkOptions options;
  options.fault = &plan;
  Network net(g, 2, options);
  const Metrics& metrics = net.run(chatter_protocol);
  EXPECT_EQ(metrics.node[0].messages_sent, 0u);
  EXPECT_EQ(metrics.node[0].awake_rounds, 0u);
  EXPECT_EQ(metrics.node[1].messages_received, 0u);
}

TEST(CrashFaultTest, UndecidedCrashedNodeReportsMinusOne) {
  const Graph g = gen::cycle(6);
  fault::FaultPlan plan;
  plan.crash_schedule = {{2, 1}};
  NetworkOptions options;
  options.fault = &plan;
  auto [metrics, outputs] = run_protocol(
      g, 3,
      [](Context& ctx) -> Task {
        co_await ctx.broadcast(Message::hello());
        co_await ctx.broadcast(Message::hello());
        ctx.decide(static_cast<std::int64_t>(ctx.id()));
      },
      options);
  EXPECT_EQ(outputs[2], -1);
  EXPECT_EQ(outputs[3], 3);
}

TEST(CrashFaultTest, DecidedOutputSurvivesLaterCrash) {
  const Graph g = gen::complete(2);
  fault::FaultPlan plan;
  plan.crash_schedule = {{0, 3}};
  NetworkOptions options;
  options.fault = &plan;
  auto [metrics, outputs] = run_protocol(
      g, 4,
      [](Context& ctx) -> Task {
        ctx.decide(7);  // decide immediately, keep chattering
        for (int i = 0; i < 10; ++i) co_await ctx.broadcast(Message::hello());
      },
      options);
  EXPECT_EQ(outputs[0], 7);
  EXPECT_TRUE(metrics.node[0].crashed);
}

TEST(CrashFaultTest, CrashRateMatchesConfiguredProbability) {
  const Graph g = gen::empty(2000);
  fault::FaultPlan plan;
  plan.crash_prob = 0.05;
  NetworkOptions options;
  options.fault = &plan;
  // Each node is awake exactly once; expect ~5% to crash then.
  auto [metrics, outputs] = run_protocol(
      g, 5,
      [](Context& ctx) -> Task {
        co_await ctx.listen();
        ctx.decide(1);
      },
      options);
  EXPECT_NEAR(static_cast<double>(metrics.crashed_nodes) / 2000.0, 0.05,
              0.02);
}

TEST(CrashFaultTest, DeterministicInSeed) {
  const Graph g = gen::gnp_sharded_csr(60, 0.1, 6);
  fault::FaultPlan plan;
  plan.crash_prob = 0.01;
  NetworkOptions options;
  options.fault = &plan;
  auto first = run_protocol(g, 42, algos::distributed_greedy_mis(), options);
  auto second = run_protocol(g, 42, algos::distributed_greedy_mis(), options);
  EXPECT_EQ(first.outputs, second.outputs);
  EXPECT_EQ(first.metrics.crashed_nodes, second.metrics.crashed_nodes);
}

// Graceful degradation: with crashes, the surviving decided nodes of the
// greedy MIS still form an independent set (a crash can only remove
// announcements, and a node joins only on local evidence about itself).
// Maximality can genuinely be lost -- a crashed would-be-MIS node leaves
// its neighborhood uncovered -- so we assert independence only, plus
// locality of the damage: every undecided survivor has a crashed node
// within distance 2 (its decision chain was severed by the crash).
struct CrashDegradation
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(CrashDegradation, IndependenceSurvivesAndDamageIsLocal) {
  const auto [crash_prob, seed] = GetParam();
  const Graph g = gen::gnp_avg_degree_sharded_csr(150, 5.0, seed);
  fault::FaultPlan plan;
  plan.crash_prob = crash_prob;
  NetworkOptions options;
  options.fault = &plan;
  auto [metrics, outputs] =
      run_protocol(g, seed * 17 + 3, algos::distributed_greedy_mis(), options);

  // Independence among nodes that decided 1.
  for (const Edge& e : g.edges()) {
    EXPECT_FALSE(outputs[e.u] == 1 && outputs[e.v] == 1)
        << "crashed MIS edge " << e.u << "-" << e.v;
  }

  // Locality: an undecided, non-crashed node must have a crashed node
  // within distance 2 (otherwise its whole decision neighborhood was
  // healthy and the greedy argument would have decided it).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (outputs[v] != -1 || metrics.node[v].crashed) continue;
    bool near_crash = false;
    for (VertexId u : g.neighbors(v)) {
      if (metrics.node[u].crashed) near_crash = true;
      for (VertexId w : g.neighbors(u)) {
        if (metrics.node[w].crashed) near_crash = true;
      }
    }
    EXPECT_TRUE(near_crash) << "undecided node " << v
                            << " with healthy 2-neighborhood";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, CrashDegradation,
    ::testing::Combine(::testing::Values(0.001, 0.01, 0.05),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace slumber::sim
