// Statistical validation of the paper's key lemmas:
//   Lemma 2:  E[|L| | U] <= |U|/2       (left recursion load)
//   Lemma 3:  E[|R| | U] <= |U|/4       (Pruning Lemma)
//   Lemma 7:  E[Z_{K-i}] <= (3/4)^i n   (geometric level decay)
// measured over many seeds via the recursion trace.
#include <gtest/gtest.h>

#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::core {
namespace {

struct LevelAverages {
  // Aggregated over seeds: sum of |U|, |L|, |R| at the top level and
  // sum of Z_{K-i} per i.
  double top_u = 0.0;
  double top_l = 0.0;
  double top_r = 0.0;
  std::vector<double> z_by_depth;  // index i = depth from root
  std::uint32_t levels = 0;
};

LevelAverages measure(const gen::Family family, const VertexId n,
                      const std::uint32_t num_seeds) {
  LevelAverages averages;
  for (std::uint32_t s = 0; s < num_seeds; ++s) {
    const Graph g = gen::make(family, n, 1000 + s);
    RecursionTrace trace;
    sim::run_protocol(g, 5000 + s, sleeping_mis({}, &trace));
    averages.levels = trace.levels;
    const auto top = trace.level_participation(trace.levels);
    averages.top_u += static_cast<double>(top.u_total);
    averages.top_l += static_cast<double>(top.left_total);
    averages.top_r += static_cast<double>(top.right_total);
    const auto z = trace.z_by_level();
    if (averages.z_by_depth.size() < z.size()) {
      averages.z_by_depth.resize(z.size(), 0.0);
    }
    for (std::uint32_t k = 0; k <= trace.levels; ++k) {
      averages.z_by_depth[trace.levels - k] += static_cast<double>(z[k]);
    }
  }
  const auto seeds = static_cast<double>(num_seeds);
  averages.top_u /= seeds;
  averages.top_l /= seeds;
  averages.top_r /= seeds;
  for (double& z : averages.z_by_depth) z /= seeds;
  return averages;
}

class PruningLemmaTest : public ::testing::TestWithParam<gen::Family> {};

TEST_P(PruningLemmaTest, LeftLoadAtMostHalf) {
  // Lemma 2 with statistical slack (40 seeds, n = 96).
  const auto averages = measure(GetParam(), 96, 40);
  ASSERT_GT(averages.top_u, 0.0);
  EXPECT_LE(averages.top_l / averages.top_u, 0.5 + 0.08)
      << gen::family_name(GetParam());
}

TEST_P(PruningLemmaTest, RightLoadAtMostQuarter) {
  // Lemma 3 (Pruning Lemma) with statistical slack.
  const auto averages = measure(GetParam(), 96, 40);
  ASSERT_GT(averages.top_u, 0.0);
  EXPECT_LE(averages.top_r / averages.top_u, 0.25 + 0.08)
      << gen::family_name(GetParam());
}

TEST_P(PruningLemmaTest, LevelDecayGeometric) {
  // Lemma 7: E[Z_{K-i}] <= (3/4)^i * n, checked for the first few
  // depths (deeper levels have tiny counts, noise dominates).
  const VertexId n = 96;
  const auto averages = measure(GetParam(), n, 40);
  const double n_actual =
      averages.z_by_depth.empty() ? 0 : averages.z_by_depth[0];
  ASSERT_GT(n_actual, 0.0);
  double bound = n_actual;
  for (std::uint32_t depth = 1;
       depth <= std::min<std::uint32_t>(6, averages.levels); ++depth) {
    bound *= 0.75;
    EXPECT_LE(averages.z_by_depth[depth], bound * 1.25)
        << gen::family_name(GetParam()) << " depth " << depth;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PruningLemmaTest,
    ::testing::Values(gen::Family::kGnpSparse, gen::Family::kGnpDense,
                      gen::Family::kCycle, gen::Family::kStar,
                      gen::Family::kRandomTree, gen::Family::kBarabasiAlbert,
                      gen::Family::kLollipop, gen::Family::kUnitDisk),
    [](const ::testing::TestParamInfo<gen::Family>& param_info) {
      return gen::family_name(param_info.param);
    });

TEST(PruningLemmaDetailTest, TotalParticipationLinearInN) {
  // Summing Lemma 7 over levels: E[sum_k Z_k] <= 4n, the heart of the
  // O(1) node-averaged bound (Lemma 8).
  for (const VertexId n : {64u, 128u, 256u}) {
    double total = 0.0;
    const std::uint32_t seeds = 20;
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const Graph g = gen::make(gen::Family::kGnpSparse, n, 77 + s);
      RecursionTrace trace;
      sim::run_protocol(g, 99 + s, sleeping_mis({}, &trace));
      for (std::uint64_t z : trace.z_by_level()) {
        total += static_cast<double>(z);
      }
    }
    total /= static_cast<double>(seeds);
    EXPECT_LE(total, 4.3 * static_cast<double>(n)) << n;
  }
}

TEST(PruningLemmaDetailTest, IsolatedNodesNeverRecurse) {
  // An isolated node joins at the first detection and participates in
  // neither recursive call (it contributes |U| but not |L| or |R|).
  const Graph g = gen::empty(32);
  RecursionTrace trace;
  sim::run_protocol(g, 3, sleeping_mis({}, &trace));
  const auto top = trace.level_participation(trace.levels);
  EXPECT_EQ(top.u_total, 32u);
  EXPECT_EQ(top.left_total, 0u);
  EXPECT_EQ(top.right_total, 0u);
  EXPECT_EQ(trace.calls.at({trace.levels, 0}).isolated_joins, 32u);
}

TEST(PruningLemmaDetailTest, BiasedCoinShiftsLeftLoad) {
  // E11 ablation mechanics: P[X=1] = p makes E[|L|]/|U| ~ p.
  const VertexId n = 128;
  for (const double bias : {0.2, 0.8}) {
    double u_total = 0.0;
    double l_total = 0.0;
    for (std::uint32_t s = 0; s < 30; ++s) {
      const Graph g = gen::make(gen::Family::kGnpSparse, n, 55 + s);
      RecursionTrace trace;
      SleepingMisOptions options;
      options.coin_bias = bias;
      sim::run_protocol(g, 200 + s, sleeping_mis(options, &trace));
      const auto top = trace.level_participation(trace.levels);
      u_total += static_cast<double>(top.u_total);
      l_total += static_cast<double>(top.left_total);
    }
    EXPECT_NEAR(l_total / u_total, bias, 0.07) << "bias " << bias;
  }
}

}  // namespace
}  // namespace slumber::core
