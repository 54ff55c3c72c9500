// Tests for the traditional-model baselines: Luby-A, Luby-B, the
// distributed randomized greedy (CRT), and Ghaffari's algorithm.
#include <gtest/gtest.h>

#include "algos/ghaffari.h"
#include "algos/greedy.h"
#include "algos/luby.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace slumber::algos {
namespace {

sim::RunResult run_on(const Graph& g, std::uint64_t seed,
                      const sim::Protocol& protocol) {
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  return sim::run_protocol(g, seed, protocol, options);
}

struct NamedEngine {
  const char* name;
  sim::Protocol protocol;
};

std::vector<NamedEngine> engines() {
  return {{"luby_a", luby_a()},
          {"luby_b", luby_b()},
          {"greedy", distributed_greedy_mis()},
          {"ghaffari", ghaffari_mis()}};
}

TEST(BaselinesTest, AllValidOnCoreFamilies) {
  for (auto& engine : engines()) {
    for (gen::Family family : gen::core_families()) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const Graph g = gen::make(family, 70, seed);
        auto [metrics, outputs] = run_on(g, seed * 7 + 3, engine.protocol);
        EXPECT_TRUE(analysis::check_mis(g, outputs).ok())
            << engine.name << " on " << gen::family_name(family) << " seed "
            << seed;
      }
    }
  }
}

TEST(BaselinesTest, IsolatedNodesJoin) {
  const Graph g = gen::empty(5);
  for (auto& engine : engines()) {
    auto [metrics, outputs] = run_on(g, 2, engine.protocol);
    for (VertexId v = 0; v < 5; ++v) {
      EXPECT_EQ(outputs[v], 1) << engine.name;
    }
  }
}

TEST(BaselinesTest, CompleteGraphSingleton) {
  const Graph g = gen::complete(20);
  for (auto& engine : engines()) {
    auto [metrics, outputs] = run_on(g, 4, engine.protocol);
    int count = 0;
    for (auto o : outputs) count += o == 1;
    EXPECT_EQ(count, 1) << engine.name;
  }
}

TEST(BaselinesTest, BaselinesNeverSleep) {
  // Traditional-model algorithms: awake every round until termination,
  // so awake_rounds == finish_round for every node.
  const Graph g = gen::gnp_avg_degree_sharded_csr(60, 6.0, 5);
  for (auto& engine : engines()) {
    auto [metrics, outputs] = run_on(g, 9, engine.protocol);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(metrics.node[v].awake_rounds, metrics.node[v].finish_round)
          << engine.name << " node " << v;
    }
  }
}

TEST(BaselinesTest, LubyARoundsLogarithmic) {
  // O(log n) w.h.p.: generous cap check at moderate n.
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 10.0, 6);
  auto [metrics, outputs] = run_on(g, 11, luby_a());
  EXPECT_LE(metrics.makespan, 60u);
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
}

TEST(BaselinesTest, GreedyMatchesSequentialOnSameRanks) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(80, 6.0, seed);
    std::vector<std::uint64_t> ranks;
    GreedyOptions options;
    options.ranks_out = &ranks;
    auto [metrics, outputs] =
        run_on(g, seed * 19, distributed_greedy_mis(options));
    const auto expected = sequential_greedy_mis(g, ranks);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(outputs[v], static_cast<std::int64_t>(expected[v]))
          << "seed " << seed << " v " << v;
    }
  }
}

TEST(BaselinesTest, GreedyDecidedInRankOrderWaves) {
  // The highest-(rank, id) node must decide in the first iteration.
  const Graph g = gen::gnp_avg_degree_sharded_csr(50, 5.0, 7);
  std::vector<std::uint64_t> ranks;
  GreedyOptions options;
  options.ranks_out = &ranks;
  auto [metrics, outputs] = run_on(g, 3, distributed_greedy_mis(options));
  VertexId best = 0;
  for (VertexId v = 1; v < 50; ++v) {
    if (ranks[v] > ranks[best] || (ranks[v] == ranks[best] && v > best)) {
      best = v;
    }
  }
  EXPECT_EQ(outputs[best], 1);
  EXPECT_LE(metrics.node[best].decided_round, 2u);
}

TEST(BaselinesTest, SequentialGreedyHandlesTies) {
  const Graph g = gen::path(3);
  const std::vector<std::uint64_t> ranks = {5, 5, 5};
  const auto mis = sequential_greedy_mis(g, ranks);
  // Ties broken by id descending: order 2, 1, 0 -> {2, 0}.
  EXPECT_EQ(mis, (std::vector<std::uint8_t>{1, 0, 1}));
}

TEST(BaselinesTest, DeterministicGivenSeed) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, 8);
  for (auto& engine : engines()) {
    auto a = run_on(g, 5, engine.protocol);
    auto b = run_on(g, 5, engine.protocol);
    EXPECT_EQ(a.outputs, b.outputs) << engine.name;
  }
}

TEST(BaselinesTest, CongestBudgetsRespected) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(128, 8.0, 9);
  for (auto& engine : engines()) {
    auto [metrics, outputs] = run_on(g, 6, engine.protocol);
    EXPECT_EQ(metrics.congest_violations, 0u) << engine.name;
  }
}

TEST(BaselinesTest, GhaffariStarResolvesFast) {
  const Graph g = gen::star(100);
  auto [metrics, outputs] = run_on(g, 12, ghaffari_mis());
  EXPECT_TRUE(analysis::check_mis(g, outputs).ok());
}

}  // namespace
}  // namespace slumber::algos
