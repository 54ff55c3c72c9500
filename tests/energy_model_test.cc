// Energy-accounting identities. energy_test.cc covers the basic model;
// this suite locks in the algebraic relationships the duty_cycle
// example and bench E9 rely on:
//
//   total(model) == marginal(model) + sleep_mw * round_time * finish
//
// per node, where marginal subtracts the sleep draw from every state
// (sleeping becomes the free ground state), plus monotonicity in each
// power knob.
#include <gtest/gtest.h>

#include "algos/luby.h"
#include "core/sleeping_mis.h"
#include "energy/energy.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::energy {
namespace {

EnergyModel marginal(const EnergyModel& base) {
  EnergyModel m = base;
  m.idle_mw -= base.sleep_mw;
  m.rx_mw -= base.sleep_mw;
  m.tx_mw -= base.sleep_mw;
  m.sleep_mw = 0.0;
  return m;
}

sim::Metrics run_sleeping(const Graph& g, std::uint64_t seed) {
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  return sim::run_protocol(g, seed, core::sleeping_mis(), options).metrics;
}

TEST(EnergyModelTest, MarginalDecomposition) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 3);
  const sim::Metrics metrics = run_sleeping(g, 11);

  const EnergyModel base;
  const EnergyModel marg = marginal(base);
  const double round_s = base.round_ms * 1e-3;
  for (const sim::NodeMetrics& node : metrics.node) {
    const double total = base.node_energy_mj(node);
    const double above_ground = marg.node_energy_mj(node);
    const double ground =
        base.sleep_mw * round_s * static_cast<double>(node.finish_round);
    EXPECT_NEAR(total, above_ground + ground, 1e-9);
  }
}

TEST(EnergyModelTest, IdealizedChargesNothingForSleep) {
  // Under the paper's idealized model a node that only sleeps costs 0.
  const EnergyModel ideal = EnergyModel::idealized();
  sim::NodeMetrics sleeper;
  sleeper.awake_rounds = 0;
  sleeper.finish_round = 1'000'000;
  EXPECT_DOUBLE_EQ(ideal.node_energy_mj(sleeper), 0.0);
  // And the same node costs a million sleep-rounds under the default.
  const EnergyModel real;
  EXPECT_NEAR(real.node_energy_mj(sleeper), 43.0 * 1e-3 * 1e6, 1e-6);
}

TEST(EnergyModelTest, MessagePremiumsAreAdditive) {
  EnergyModel m;
  sim::NodeMetrics a;
  a.awake_rounds = 10;
  a.finish_round = 10;
  sim::NodeMetrics b = a;
  b.messages_sent = 5;
  b.messages_received = 3;
  const double round_s = m.round_ms * 1e-3;
  const double expected_premium =
      (m.tx_mw - m.idle_mw) * m.msg_fraction * round_s * 5 +
      (m.rx_mw - m.idle_mw) * m.msg_fraction * round_s * 3;
  EXPECT_NEAR(m.node_energy_mj(b) - m.node_energy_mj(a), expected_premium,
              1e-12);
}

TEST(EnergyModelTest, AwakeTimeDominatesForIdleListeners) {
  // A node that idles (listens without traffic) for k rounds pays
  // k * idle -- the Section 1.1 point that idle listening is nearly as
  // expensive as receiving.
  EnergyModel m;
  sim::NodeMetrics idler;
  idler.awake_rounds = 100;
  idler.finish_round = 100;
  const double idle_cost = m.node_energy_mj(idler);
  sim::NodeMetrics sleeper;
  sleeper.awake_rounds = 0;
  sleeper.finish_round = 100;
  EXPECT_GT(idle_cost, 15.0 * m.node_energy_mj(sleeper));
}

TEST(EnergyModelTest, ReportAggregatesMatchPerNode) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(48, 5.0, 5);
  const sim::Metrics metrics = run_sleeping(g, 21);
  const EnergyModel model;
  const EnergyReport report = evaluate(model, metrics);
  ASSERT_EQ(report.per_node_mj.size(), metrics.node.size());
  double total = 0.0;
  double max = 0.0;
  for (double mj : report.per_node_mj) {
    total += mj;
    max = std::max(max, mj);
  }
  EXPECT_NEAR(report.total_mj, total, 1e-9);
  EXPECT_DOUBLE_EQ(report.max_mj, max);
  EXPECT_NEAR(report.mean_mj, total / metrics.node.size(), 1e-9);
}

// The headline energy ordering on a fixed run: idealized <= marginal
// <= default, because each step adds sleep-draw charges.
TEST(EnergyModelTest, ModelOrderingOnRealRuns) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 9);
  const sim::Metrics metrics = run_sleeping(g, 31);
  const EnergyModel base;
  const auto ideal_report = evaluate(EnergyModel::idealized(), metrics);
  const auto marg_report = evaluate(marginal(base), metrics);
  const auto full_report = evaluate(base, metrics);
  EXPECT_LE(marg_report.total_mj, full_report.total_mj);
  EXPECT_LE(ideal_report.total_mj, full_report.total_mj);
}

}  // namespace
}  // namespace slumber::energy
