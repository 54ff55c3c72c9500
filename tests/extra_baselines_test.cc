// Tests for the extension baselines: deterministic greedy-by-ID MIS
// and the Barenboim-Tzur-style arboricity-aware MIS.
#include <gtest/gtest.h>

#include "algos/arboricity_mis.h"
#include "algos/deterministic.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "sim/network.h"

namespace slumber::algos {
namespace {

sim::RunResult run_on(const Graph& g, std::uint64_t seed,
                      const sim::Protocol& protocol) {
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  return sim::run_protocol(g, seed, protocol, options);
}

ArboricityMisOptions arboricity_options_for(const Graph& g) {
  ArboricityMisOptions options;
  options.arboricity_bound =
      std::max<std::uint32_t>(1, arboricity_bounds(g).upper);
  return options;
}

TEST(DeterministicGreedyTest, ValidOnCoreFamilies) {
  for (gen::Family family : gen::core_families()) {
    const Graph g = gen::make(family, 60, 3);
    auto [metrics, outputs] = run_on(g, 1, deterministic_greedy_mis());
    EXPECT_TRUE(analysis::check_mis(g, outputs).ok())
        << gen::family_name(family);
  }
}

TEST(DeterministicGreedyTest, OutputIsSeedIndependent) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(50, 5.0, 2);
  auto a = run_on(g, 1, deterministic_greedy_mis());
  auto b = run_on(g, 999, deterministic_greedy_mis());
  EXPECT_EQ(a.outputs, b.outputs);  // no randomness anywhere
}

TEST(DeterministicGreedyTest, PicksDescendingIdLexFirstMis) {
  // On a path with increasing ids, greedy by descending ID picks
  // n-1, n-3, n-5, ... : the decision frontier sweeps the path.
  const Graph g = gen::path(7);
  auto [metrics, outputs] = run_on(g, 1, deterministic_greedy_mis());
  EXPECT_EQ(outputs, (std::vector<std::int64_t>{1, 0, 1, 0, 1, 0, 1}));
}

TEST(DeterministicGreedyTest, AdversarialPathTakesLinearRounds) {
  // The sorted path is the worst case: node 0 cannot decide before the
  // frontier reaches it, Theta(n) rounds -- including on *average*,
  // since half the nodes wait Omega(n) rounds. This is why Table 1's
  // baselines are randomized.
  const Graph g = gen::path(200);
  auto [metrics, outputs] = run_on(g, 1, deterministic_greedy_mis());
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
  EXPECT_GE(metrics.makespan, 150u);
  EXPECT_GE(metrics.node_avg_decided(), 40.0);
}

TEST(DeterministicGreedyTest, CompleteGraphOneRoundWave) {
  const Graph g = gen::complete(30);
  auto [metrics, outputs] = run_on(g, 1, deterministic_greedy_mis());
  EXPECT_EQ(outputs[29], 1);  // highest id wins instantly
  EXPECT_LE(metrics.makespan, 2u);
}

TEST(ArboricityMisTest, ValidOnCoreFamilies) {
  for (gen::Family family : gen::core_families()) {
    const Graph g = gen::make(family, 60, 5);
    auto [metrics, outputs] =
        run_on(g, 2, arboricity_mis(arboricity_options_for(g)));
    EXPECT_TRUE(analysis::check_mis(g, outputs).ok())
        << gen::family_name(family);
  }
}

TEST(ArboricityMisTest, DeterministicOutput) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(50, 5.0, 7);
  const auto options = arboricity_options_for(g);
  auto a = run_on(g, 1, arboricity_mis(options));
  auto b = run_on(g, 42, arboricity_mis(options));
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(ArboricityMisTest, TreesResolveFast) {
  // Arboricity 1: the peeling phase dominates; phase 2 is short
  // because every partition class has <= 3 same-or-earlier neighbors.
  Rng rng(9);
  const Graph g = gen::random_tree(200, rng);
  ArboricityMisOptions options;
  options.arboricity_bound = 1;
  auto [metrics, outputs] = run_on(g, 3, arboricity_mis(options));
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
  EXPECT_LE(metrics.makespan, 80u);
}

TEST(ArboricityMisTest, CliqueCostScalesWithArboricity) {
  // On K_n the arboricity is ~n/2: the priority chain is long and the
  // run needs Omega(n)-ish rounds -- the weakness vs the sleeping
  // algorithms that the paper's Section 1.5 comparison highlights.
  const Graph small = gen::complete(16);
  const Graph large = gen::complete(64);
  ArboricityMisOptions small_options;
  small_options.arboricity_bound = 8;
  ArboricityMisOptions large_options;
  large_options.arboricity_bound = 32;
  auto run_small = run_on(small, 1, arboricity_mis(small_options));
  auto run_large = run_on(large, 1, arboricity_mis(large_options));
  EXPECT_TRUE(analysis::check_mis(small, run_small.outputs).ok());
  EXPECT_TRUE(analysis::check_mis(large, run_large.outputs).ok());
  EXPECT_GT(run_large.metrics.node_avg_awake(),
            run_small.metrics.node_avg_awake());
}

TEST(ArboricityMisTest, LooseBoundStillCorrect) {
  // An over-estimate of the arboricity only makes peeling faster
  // (higher threshold); correctness is unaffected.
  const Graph g = gen::gnp_avg_degree_sharded_csr(60, 6.0, 11);
  ArboricityMisOptions options;
  options.arboricity_bound = 50;
  auto [metrics, outputs] = run_on(g, 4, arboricity_mis(options));
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
}

TEST(ArboricityMisTest, RejectsZeroBound) {
  ArboricityMisOptions options;
  options.arboricity_bound = 0;
  EXPECT_THROW(arboricity_mis(options), std::invalid_argument);
}

TEST(ArboricityMisTest, PartitionPayloadWithinCongest) {
  Rng rng(13);
  const Graph g = gen::barabasi_albert(100, 3, rng);
  auto [metrics, outputs] =
      run_on(g, 6, arboricity_mis(arboricity_options_for(g)));
  EXPECT_EQ(metrics.congest_violations, 0u);
}

}  // namespace
}  // namespace slumber::algos
