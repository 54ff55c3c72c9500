// Statistical distribution tests: properties of the algorithms beyond
// point expectations. These lock in (a) the Fischer-Noever O(log n)
// w.h.p. bound for the randomized greedy that Algorithm 2's base case
// leans on, (b) the geometric tail of per-node awake time behind the
// paper's "high probability bounds on A" remark, and (c) sanity of MIS
// sizes against combinatorial ground truth.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/greedy.h"
#include "analysis/experiment.h"
#include "analysis/stats.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber {
namespace {

TEST(DistributionTest, GreedyRoundsLogarithmicWhp) {
  // Fischer-Noever: the randomized greedy finishes in O(log n) rounds
  // w.h.p. -- the fact that calibrates Algorithm 2's fixed base budget
  // of 6 log2 n rounds. Measure the max makespan over seeds and check
  // it sits well under that budget.
  for (const VertexId n : {64u, 256u, 1024u}) {
    std::uint64_t worst = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n + seed);
      auto run = analysis::run_mis(analysis::MisEngine::kGreedy, g, seed);
      ASSERT_TRUE(run.valid);
      worst = std::max(worst, run.worst_rounds);
    }
    const double budget = 6.0 * std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(worst), budget)
        << "n=" << n << ": greedy exceeded Algorithm 2's base budget";
  }
}

TEST(DistributionTest, AwakeTimeTailDecaysGeometrically) {
  // Surviving to one more recursion level costs a bounded number of
  // awake rounds and happens with probability <= 3/4, so
  // P[A_v >= t] should fall at least geometrically in t.
  const VertexId n = 512;
  std::vector<double> awake;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, seed);
    sim::Network net(g, seed * 3);
    const sim::Metrics& metrics = net.run(core::sleeping_mis());
    for (const auto& m : metrics.node) {
      awake.push_back(static_cast<double>(m.awake_rounds));
    }
  }
  auto tail = [&](double t) {
    double count = 0;
    for (double a : awake) count += a >= t ? 1 : 0;
    return count / static_cast<double>(awake.size());
  };
  EXPECT_LT(tail(15), 0.35);
  EXPECT_LT(tail(25), 0.12);
  EXPECT_LT(tail(40), 0.02);
  // Monotone decay with a real gap between decades.
  EXPECT_GT(tail(10), 2.0 * tail(25));
}

TEST(DistributionTest, AverageAwakeConcentrates) {
  // A is an average of n weakly-dependent A_v: its run-to-run stddev
  // must shrink markedly from n=64 to n=1024.
  auto stddev_at = [](VertexId n) {
    std::vector<double> averages;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n * 13 + seed);
      sim::Network net(g, n + seed);
      averages.push_back(net.run(core::sleeping_mis()).node_avg_awake());
    }
    return analysis::summarize(averages).stddev;
  };
  const double small_n = stddev_at(64);
  const double large_n = stddev_at(1024);
  EXPECT_LT(large_n, small_n);
  EXPECT_LT(large_n, 0.25);
}

TEST(DistributionTest, MisSizeOnCycleWithinCombinatorialBounds) {
  // Any MIS of C_n has between ceil(n/3) and floor(n/2) vertices.
  const VertexId n = 99;
  const Graph g = gen::cycle(n);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run =
        analysis::run_mis(analysis::MisEngine::kSleeping, g, seed);
    ASSERT_TRUE(run.valid);
    EXPECT_GE(run.mis_size, (n + 2) / 3);
    EXPECT_LE(run.mis_size, n / 2);
  }
}

TEST(DistributionTest, RandomOrderGreedyMisSizeOnCycleNearExpectation) {
  // Classical fact: random-order greedy MIS on a long cycle/path covers
  // ~ (1 - e^-2)/2 ~ 0.432 of the vertices. CRT-greedy is exactly
  // random-order greedy (Corollary 1 machinery), so its size should
  // land near 0.432n, well inside (n/3, n/2).
  const VertexId n = 600;
  const Graph g = gen::cycle(n);
  std::vector<double> sizes;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = analysis::run_mis(analysis::MisEngine::kGreedy, g, seed);
    ASSERT_TRUE(run.valid);
    sizes.push_back(static_cast<double>(run.mis_size));
  }
  const double mean = analysis::summarize(sizes).mean / n;
  EXPECT_NEAR(mean, 0.432, 0.02);
}

TEST(DistributionTest, SleepingMisSizeMatchesGreedySizeDistribution) {
  // Corollary 1 implies Algorithm 1's MIS is distributed exactly like
  // random-order greedy's (both are lex-first over a uniformly random
  // order). Their mean sizes on the same graph must agree closely.
  const Graph g = gen::gnp_avg_degree_sharded_csr(300, 8.0, 5);
  std::vector<double> sleeping_sizes;
  std::vector<double> greedy_sizes;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sleeping_sizes.push_back(static_cast<double>(
        analysis::run_mis(analysis::MisEngine::kSleeping, g, seed).mis_size));
    greedy_sizes.push_back(static_cast<double>(
        analysis::run_mis(analysis::MisEngine::kGreedy, g, 100 + seed)
            .mis_size));
  }
  const double sleeping_mean = analysis::summarize(sleeping_sizes).mean;
  const double greedy_mean = analysis::summarize(greedy_sizes).mean;
  EXPECT_NEAR(sleeping_mean, greedy_mean, 0.08 * greedy_mean);
}

}  // namespace
}  // namespace slumber
