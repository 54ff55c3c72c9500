// Tests for flood-max leader election and its decision-instant
// accounting (the Feuilloley node-averaged notion, paper Section 1.5).
#include <gtest/gtest.h>

#include <tuple>

#include "algos/leader_election.h"
#include "graph/generators.h"
#include "graph/properties.h"

namespace slumber::algos {
namespace {

std::size_t count_leaders(const std::vector<std::int64_t>& outputs) {
  std::size_t leaders = 0;
  for (std::int64_t out : outputs) leaders += out == 1 ? 1 : 0;
  return leaders;
}

TEST(LeaderElectionTest, SingleNode) {
  Graph g = gen::empty(1);
  auto [metrics, outputs] =
      sim::run_protocol(g, 3, flood_max_leader_election());
  EXPECT_EQ(outputs[0], 1);
}

TEST(LeaderElectionTest, UniqueLeaderOnCycle) {
  Graph g = gen::cycle(32);
  auto [metrics, outputs] =
      sim::run_protocol(g, 7, flood_max_leader_election());
  EXPECT_EQ(count_leaders(outputs), 1u);
  // Everyone decided.
  for (std::int64_t out : outputs) EXPECT_TRUE(out == 0 || out == 1);
}

TEST(LeaderElectionTest, DiameterBoundSuffices) {
  Graph g = gen::grid(6, 6);
  const auto diam = static_cast<std::uint64_t>(diameter(g));
  LeaderElectionOptions options;
  options.diameter_bound = diam;
  auto [metrics, outputs] =
      sim::run_protocol(g, 11, flood_max_leader_election(options));
  EXPECT_EQ(count_leaders(outputs), 1u);
  EXPECT_EQ(metrics.makespan, diam);
}

TEST(LeaderElectionTest, OneLeaderPerComponent) {
  // Two disjoint cliques: exactly one leader each.
  Graph g = gen::clique_chain(20, 10);
  auto [metrics, outputs] =
      sim::run_protocol(g, 13, flood_max_leader_election());
  EXPECT_EQ(count_leaders(outputs), 2u);
}

TEST(LeaderElectionTest, LosersDecideEarlyOnStar) {
  // On a star the flood takes <= 2 rounds to reach everyone, so every
  // loser's decision instant is at most 2 even though the protocol runs
  // for n-1 rounds: the node-averaged decided complexity is O(1) while
  // the worst-case (termination) complexity is Theta(n).
  Graph g = gen::star(64);
  auto [metrics, outputs] =
      sim::run_protocol(g, 5, flood_max_leader_election());
  EXPECT_EQ(count_leaders(outputs), 1u);
  EXPECT_LE(metrics.node_avg_decided(), 3.0);
  EXPECT_EQ(metrics.worst_finish(), 63u);
}

TEST(LeaderElectionTest, DeterministicInSeed) {
  Graph g = gen::cycle(16);
  auto first = sim::run_protocol(g, 99, flood_max_leader_election());
  auto second = sim::run_protocol(g, 99, flood_max_leader_election());
  EXPECT_EQ(first.outputs, second.outputs);
}

struct LeaderSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(LeaderSweep, UniqueLeaderOnConnectedRandomGraphs) {
  const auto [n, seed] = GetParam();
  // Dense enough to be connected w.h.p. at n >= 32. At n = 8 most
  // draws are not, so take the first connected one of a fixed sequence
  // of seeds instead of skipping the case.
  std::uint64_t graph_seed = seed;
  Graph g = gen::gnp_sharded_csr(static_cast<VertexId>(n), 0.2, graph_seed);
  while (!is_connected(g)) {
    graph_seed += 1000;
    g = gen::gnp_sharded_csr(static_cast<VertexId>(n), 0.2, graph_seed);
  }
  auto [metrics, outputs] =
      sim::run_protocol(g, seed * 31 + 1, flood_max_leader_election());
  EXPECT_EQ(count_leaders(outputs), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LeaderSweep,
    ::testing::Combine(::testing::Values(8, 32, 96),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

}  // namespace
}  // namespace slumber::algos
