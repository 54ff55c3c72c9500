// Tests for the radio energy model.
#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "energy/energy.h"
#include "graph/generators.h"

namespace slumber::energy {
namespace {

sim::NodeMetrics make_node(std::uint64_t awake, std::uint64_t finish,
                           std::uint64_t sent, std::uint64_t received) {
  sim::NodeMetrics m;
  m.awake_rounds = awake;
  m.finish_round = finish;
  m.messages_sent = sent;
  m.messages_received = received;
  return m;
}

TEST(EnergyTest, SleepIsCheapIdleIsExpensive) {
  EnergyModel model;
  // Same wall time, one node awake throughout vs asleep throughout.
  const double awake_cost = model.node_energy_mj(make_node(100, 100, 0, 0));
  const double sleepy_cost = model.node_energy_mj(make_node(1, 100, 0, 0));
  EXPECT_GT(awake_cost, 10.0 * sleepy_cost);
}

TEST(EnergyTest, IdealizedSleepIsFree) {
  const EnergyModel model = EnergyModel::idealized();
  const double cost_a = model.node_energy_mj(make_node(5, 100, 0, 0));
  const double cost_b = model.node_energy_mj(make_node(5, 1'000'000, 0, 0));
  EXPECT_DOUBLE_EQ(cost_a, cost_b);  // trailing sleep costs nothing
}

TEST(EnergyTest, MessagesAddPremium) {
  EnergyModel model;
  const double quiet = model.node_energy_mj(make_node(10, 10, 0, 0));
  const double chatty = model.node_energy_mj(make_node(10, 10, 5, 5));
  EXPECT_GT(chatty, quiet);
  // Premium is (tx - idle) and (rx - idle) per message fraction.
  const double expected_premium =
      ((model.tx_mw - model.idle_mw) + (model.rx_mw - model.idle_mw)) * 5 *
      model.msg_fraction * model.round_ms * 1e-3;
  EXPECT_NEAR(chatty - quiet, expected_premium, 1e-9);
}

TEST(EnergyTest, ReportAggregates) {
  EnergyModel model;
  sim::Metrics metrics;
  metrics.node.push_back(make_node(10, 10, 0, 0));
  metrics.node.push_back(make_node(20, 20, 0, 0));
  const EnergyReport report = evaluate(model, metrics);
  ASSERT_EQ(report.per_node_mj.size(), 2u);
  EXPECT_NEAR(report.total_mj,
              report.per_node_mj[0] + report.per_node_mj[1], 1e-12);
  EXPECT_NEAR(report.mean_mj, report.total_mj / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(report.max_mj, report.per_node_mj[1]);
}

TEST(EnergyTest, SleepingMisBeatsLubyPerNodeUnderIdealModel) {
  // The paper's headline in energy terms: with sleeping free, the
  // sleeping algorithm's mean energy stays flat while Luby's grows.
  const Graph g = gen::gnp_avg_degree_sharded_csr(300, 8.0, 3);
  const auto sleeping =
      analysis::run_mis(analysis::MisEngine::kSleeping, g, 7);
  const auto luby = analysis::run_mis(analysis::MisEngine::kLubyA, g, 7);
  ASSERT_TRUE(sleeping.valid);
  ASSERT_TRUE(luby.valid);
  const EnergyModel model = EnergyModel::idealized();
  const EnergyReport sleep_report = evaluate(model, sleeping.metrics);
  const EnergyReport luby_report = evaluate(model, luby.metrics);
  EXPECT_GT(sleep_report.mean_mj, 0.0);
  // Awake-time ratio dominates; allow generous slack for the constant.
  EXPECT_LT(sleep_report.mean_mj, 10.0 * luby_report.mean_mj);
}

}  // namespace
}  // namespace slumber::energy
