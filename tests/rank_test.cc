// Tests for k-ranks (Definition 1) and the lexicographically-first MIS.
#include <gtest/gtest.h>

#include "core/rank.h"
#include "graph/generators.h"

namespace slumber::core {
namespace {

std::vector<std::uint8_t> bits_of(std::initializer_list<int> high_to_low) {
  // Convenience: specify X_K..X_1; returns indexed vector (index 0 unused).
  std::vector<std::uint8_t> out;
  out.push_back(0);
  for (auto it = std::rbegin(high_to_low); it != std::rend(high_to_low); ++it) {
    out.push_back(static_cast<std::uint8_t>(*it));
  }
  return out;
}

TEST(RankTest, CompareIsLexicographicFromHighBit) {
  const auto a = bits_of({1, 0, 1});  // X_3=1 X_2=0 X_1=1
  const auto b = bits_of({1, 1, 0});
  EXPECT_EQ(compare_k_rank(a, b, 3), -1);  // differs at X_2
  EXPECT_EQ(compare_k_rank(b, a, 3), 1);
  EXPECT_EQ(compare_k_rank(a, a, 3), 0);
}

TEST(RankTest, LowerKIgnoresHighBits) {
  const auto a = bits_of({1, 0, 1});
  const auto b = bits_of({0, 0, 1});
  // r_3 differs (X_3), but r_2 = (X_2, X_1) is equal.
  EXPECT_EQ(compare_k_rank(a, b, 3), 1);
  EXPECT_EQ(compare_k_rank(a, b, 2), 0);
  EXPECT_EQ(compare_k_rank(a, b, 1), 0);
}

TEST(RankTest, SentinelNeverDiscriminates) {
  // k = 0 rank is just the sentinel: always equal.
  const auto a = bits_of({1, 1, 1});
  const auto b = bits_of({0, 0, 0});
  EXPECT_EQ(compare_k_rank(a, b, 0), 0);
}

TEST(RankTest, GreedyOrderSortsByDecreasingRank) {
  CoinBits bits = {bits_of({0, 1}), bits_of({1, 0}), bits_of({1, 1}),
                   bits_of({0, 0})};
  const auto order = greedy_order_from_bits(bits, 2);
  // Decreasing: 11 (v2) > 10 (v1) > 01 (v0) > 00 (v3).
  const std::vector<VertexId> expected = {2, 1, 0, 3};
  EXPECT_EQ(order, expected);
}

TEST(RankTest, GreedyOrderTieBreaksById) {
  CoinBits bits = {bits_of({1}), bits_of({1}), bits_of({0})};
  const auto order = greedy_order_from_bits(bits, 1);
  const std::vector<VertexId> expected = {0, 1, 2};
  EXPECT_EQ(order, expected);
}

TEST(RankTest, BaseRankRefinesOrder) {
  CoinBits bits = {bits_of({1}), bits_of({1}), bits_of({1})};
  const std::vector<std::uint64_t> base_rank = {5, 9, 7};
  const auto order = greedy_order_from_bits_and_base(bits, 1, base_rank);
  const std::vector<VertexId> expected = {1, 2, 0};  // by decreasing rank
  EXPECT_EQ(order, expected);
}

TEST(RankTest, LexFirstMisOnPathDependsOnOrder) {
  const Graph g = gen::path(4);  // 0-1-2-3
  const std::vector<VertexId> order_a = {0, 1, 2, 3};
  const auto mis_a = lex_first_mis(g, order_a);
  EXPECT_EQ(mis_a, (std::vector<std::uint8_t>{1, 0, 1, 0}));
  const std::vector<VertexId> order_b = {1, 0, 2, 3};
  const auto mis_b = lex_first_mis(g, order_b);
  EXPECT_EQ(mis_b, (std::vector<std::uint8_t>{0, 1, 0, 1}));
}

TEST(RankTest, LexFirstMisIsAlwaysMaximalIndependent) {
  Rng rng(31);
  const Graph g = gen::gnp_sharded_csr(60, 0.1, 31);
  std::vector<VertexId> order(60);
  for (VertexId v = 0; v < 60; ++v) order[v] = v;
  rng.shuffle(order);
  const auto mis = lex_first_mis(g, order);
  for (const Edge& e : g.edges()) {
    EXPECT_FALSE(mis[e.u] && mis[e.v]);
  }
  for (VertexId v = 0; v < 60; ++v) {
    if (mis[v]) continue;
    bool dominated = false;
    for (VertexId u : g.neighbors(v)) dominated = dominated || mis[u];
    EXPECT_TRUE(dominated) << v;
  }
}

}  // namespace
}  // namespace slumber::core
