// Tests for (k+1, k)-ruling sets via MIS on graph powers.
#include <gtest/gtest.h>

#include <tuple>

#include "algos/ruling_set.h"
#include "graph/generators.h"

namespace slumber::algos {
namespace {

TEST(RulingSetTest, KOneIsPlainMis) {
  Graph g = gen::gnp_sharded_csr(60, 0.1, 17);
  auto result = ruling_set_via_mis(g, 1, 5, MisEngine::kGreedy);
  auto check = check_ruling_set(g, result.rulers, 2, 1);
  EXPECT_TRUE(check.ok()) << "independent=" << check.independent
                          << " dominating=" << check.dominating;
}

TEST(RulingSetTest, RejectsKZero) {
  Graph g = gen::cycle(5);
  EXPECT_THROW(ruling_set_via_mis(g, 0, 1, MisEngine::kGreedy),
               std::invalid_argument);
}

TEST(RulingSetTest, PathRulersSpreadOut) {
  Graph g = gen::path(30);
  auto result = ruling_set_via_mis(g, 3, 11, MisEngine::kGreedy);
  auto check = check_ruling_set(g, result.rulers, 4, 3);
  EXPECT_TRUE(check.ok());
  // On a path, (4,3)-ruling set members are >= 4 apart, so at most
  // ceil(30/4) of them; and domination needs at least ceil(30/7).
  EXPECT_LE(result.rulers.size(), 8u);
  EXPECT_GE(result.rulers.size(), 5u);
}

TEST(RulingSetTest, CompleteGraphSingleton) {
  Graph g = gen::complete(12);
  auto result = ruling_set_via_mis(g, 2, 3, MisEngine::kGreedy);
  EXPECT_EQ(result.rulers.size(), 1u);
  EXPECT_TRUE(check_ruling_set(g, result.rulers, 3, 2).ok());
}

TEST(RulingSetTest, CheckerCatchesViolations) {
  Graph g = gen::path(6);  // 0-1-2-3-4-5
  // Adjacent pair violates alpha=2 independence.
  EXPECT_FALSE(check_ruling_set(g, {0, 1}, 2, 5).independent);
  // Distance-2 pair fails alpha=3 but passes alpha=2.
  EXPECT_FALSE(check_ruling_set(g, {0, 2}, 3, 5).independent);
  EXPECT_TRUE(check_ruling_set(g, {0, 2}, 2, 5).independent);
  // {0} does not dominate vertex 5 within beta=2.
  EXPECT_FALSE(check_ruling_set(g, {0}, 2, 2).dominating);
  EXPECT_TRUE(check_ruling_set(g, {0}, 2, 5).dominating);
  // Empty set never dominates a non-empty graph.
  EXPECT_FALSE(check_ruling_set(g, {}, 2, 100).dominating);
}

struct RulingSetSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, MisEngine>> {};

TEST_P(RulingSetSweep, ValidOnRandomGraphs) {
  const auto [k, seed, engine] = GetParam();
  Graph g = gen::gnp_avg_degree_sharded_csr(80, 5.0, seed);
  auto result = ruling_set_via_mis(g, k, seed + 100, engine);
  auto check = check_ruling_set(g, result.rulers, k + 1, k);
  EXPECT_TRUE(check.ok()) << "k=" << k << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RulingSetSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(MisEngine::kGreedy,
                                         MisEngine::kSleeping,
                                         MisEngine::kLubyA)));

}  // namespace
}  // namespace slumber::algos
