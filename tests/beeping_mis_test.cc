// Tests for the beeping-model MIS (Afek et al. style bitwise
// tournament). Correctness must hold on every seed because composite
// ranks embed node ids (no tie is possible between neighbors).
#include <gtest/gtest.h>

#include <tuple>

#include "algos/beeping_mis.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "graph/transforms.h"
#include "util/rng.h"

namespace slumber::algos {
namespace {

TEST(BeepingMisTest, SingleNodeJoins) {
  Graph g = gen::empty(1);
  auto [metrics, outputs] = sim::run_protocol(g, 1, beeping_mis());
  EXPECT_EQ(outputs[0], 1);
}

TEST(BeepingMisTest, IsolatedNodesAllJoin) {
  Graph g = gen::empty(10);
  auto [metrics, outputs] = sim::run_protocol(g, 2, beeping_mis());
  for (std::int64_t out : outputs) EXPECT_EQ(out, 1);
}

TEST(BeepingMisTest, TriangleElectsExactlyOne) {
  Graph g = gen::complete(3);
  auto [metrics, outputs] = sim::run_protocol(g, 3, beeping_mis());
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
  int joined = 0;
  for (std::int64_t out : outputs) joined += out == 1;
  EXPECT_EQ(joined, 1);
}

TEST(BeepingMisTest, MessagesAreOneBit) {
  Graph g = gen::cycle(12);
  sim::NetworkOptions options;
  options.max_message_bits = 1;  // beeps only; anything wider must throw
  auto [metrics, outputs] = sim::run_protocol(g, 4, beeping_mis(), options);
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
  EXPECT_EQ(metrics.congest_violations, 0u);
  EXPECT_EQ(metrics.max_message_bits_seen, 1u);
}

TEST(BeepingMisTest, AllNodesStayAwakeUntilDecided) {
  // No sleeping in the beeping model: every awake round of a node is
  // consecutive from round 1, so awake_rounds == finish_round.
  Graph g = gen::cycle(16);
  auto [metrics, outputs] = sim::run_protocol(g, 5, beeping_mis());
  for (const auto& node : metrics.node) {
    EXPECT_EQ(node.awake_rounds, node.finish_round);
  }
}

TEST(BeepingMisTest, DeterministicInSeed) {
  Graph g = gen::gnp_sharded_csr(50, 0.1, 6);
  auto first = sim::run_protocol(g, 123, beeping_mis());
  auto second = sim::run_protocol(g, 123, beeping_mis());
  EXPECT_EQ(first.outputs, second.outputs);
}

struct BeepingSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BeepingSweep, ValidMisOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  Graph g =
      gen::gnp_avg_degree_sharded_csr(static_cast<VertexId>(n), 6.0, seed);
  auto [metrics, outputs] = sim::run_protocol(g, seed * 13 + 7, beeping_mis());
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok()) << g.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BeepingSweep,
    ::testing::Combine(::testing::Values(16, 64, 160),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

struct BeepingFamilies : public ::testing::TestWithParam<int> {};

TEST_P(BeepingFamilies, ValidMisOnStructuredFamilies) {
  const int which = GetParam();
  Rng rng(1000 + which);
  Graph g;
  switch (which) {
    case 0: g = gen::complete(17); break;
    case 1: g = gen::star(40); break;
    case 2: g = gen::grid(7, 9); break;
    case 3: g = gen::hypercube(5); break;
    case 4: g = gen::barabasi_albert(120, 3, rng); break;
    case 5: g = mycielski(gen::cycle(9)); break;
    default: g = gen::lollipop(50, 12); break;
  }
  auto [metrics, outputs] = sim::run_protocol(g, 77 + which, beeping_mis());
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok()) << g.summary();
}

INSTANTIATE_TEST_SUITE_P(Families, BeepingFamilies, ::testing::Range(0, 7));

TEST(BeepingMisTest, CandidateProbAblationStillCorrect) {
  Graph g = gen::gnp_sharded_csr(80, 0.08, 9);
  for (double p : {0.1, 0.25, 0.75, 0.9}) {
    BeepingMisOptions options;
    options.candidate_prob = p;
    auto [metrics, outputs] =
        sim::run_protocol(g, 31, beeping_mis(options));
    EXPECT_TRUE(analysis::check_mis(g, outputs).ok()) << "p=" << p;
  }
}

}  // namespace
}  // namespace slumber::algos
