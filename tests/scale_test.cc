// Scale stress: the event-skipping scheduler must make Algorithm 1's
// astronomically long schedules tractable. At n = 16384 the schedule
// spans T(42) = 3(2^42 - 1) ~ 1.3 * 10^13 virtual rounds; simulation
// cost is proportional to awake node-rounds (expected O(n), Lemma 8),
// so the whole run takes well under a second. These tests are the
// library's guarantee that the design decision in DESIGN.md Section 5.2
// actually holds at four orders of magnitude beyond the bench sizes.
#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "core/fast_sleeping_mis.h"
#include "core/schedule.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber {
namespace {

TEST(ScaleTest, SleepingMisAt16k) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(16384, 8.0, 1);
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  auto [metrics, outputs] =
      sim::run_protocol(g, 42, core::sleeping_mis(), options);
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());

  // The makespan is the closed-form schedule, ~1.3e13 rounds.
  const auto depth = core::recursion_depth(16384);
  EXPECT_EQ(metrics.makespan, core::schedule_duration(depth));
  EXPECT_GT(metrics.makespan, std::uint64_t{1} << 43);

  // ... of which only O(n) node-rounds were actually simulated.
  EXPECT_LT(metrics.total_awake_node_rounds, 16384u * 16u);
  // The awake average sits on the O(1) plateau measured in E6.
  EXPECT_GT(metrics.node_avg_awake(), 3.0);
  EXPECT_LT(metrics.node_avg_awake(), 10.0);
  // Worst-case awake is O(log n) (Lemma 9): 3 rounds per level bound.
  EXPECT_LE(metrics.worst_awake(), 3u * (depth + 1));
}

TEST(ScaleTest, FastSleepingMisAt16k) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(16384, 8.0, 2);
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  auto [metrics, outputs] =
      sim::run_protocol(g, 43, core::fast_sleeping_mis(), options);
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
  // Polylog makespan: under 10^5 rounds instead of 10^13.
  EXPECT_LT(metrics.makespan, 100'000u);
  EXPECT_LT(metrics.node_avg_awake(), 10.0);
}

TEST(ScaleTest, DistinctActiveRoundsTracksAwakeWorkNotVirtualTime) {
  // The scheduler touches only rounds where somebody is awake; assert
  // that count is millions of times smaller than the virtual makespan.
  const Graph g = gen::gnp_avg_degree_sharded_csr(4096, 8.0, 3);
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  auto [metrics, outputs] =
      sim::run_protocol(g, 44, core::sleeping_mis(), options);
  ASSERT_TRUE(analysis::check_mis(g, outputs).ok());
  EXPECT_LT(metrics.distinct_active_rounds * 1'000'000, metrics.makespan);
}

}  // namespace
}  // namespace slumber
