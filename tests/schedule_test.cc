// Tests for the recursion schedule (Lemma 10, Figure 1, Equation 2).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/schedule.h"

namespace slumber::core {
namespace {

TEST(ScheduleTest, DurationMatchesClosedForm) {
  // T(k) = 3(2^k - 1) for base 0 (Lemma 10).
  EXPECT_EQ(schedule_duration(0), 0u);
  EXPECT_EQ(schedule_duration(1), 3u);
  EXPECT_EQ(schedule_duration(2), 9u);
  EXPECT_EQ(schedule_duration(3), 21u);
  EXPECT_EQ(schedule_duration(10), 3u * 1023);
}

TEST(ScheduleTest, DurationSatisfiesRecurrence) {
  for (std::uint64_t base : {0ULL, 1ULL, 46ULL}) {
    for (std::uint32_t k = 1; k <= 20; ++k) {
      EXPECT_EQ(schedule_duration(k, base),
                2 * schedule_duration(k - 1, base) + 3);
    }
    EXPECT_EQ(schedule_duration(0, base), base);
  }
}

TEST(ScheduleTest, RecursionDepthIsCeil3Log2) {
  EXPECT_EQ(recursion_depth(0), 0u);
  EXPECT_EQ(recursion_depth(1), 0u);
  EXPECT_EQ(recursion_depth(2), 3u);    // ceil(3*1)
  EXPECT_EQ(recursion_depth(8), 9u);    // ceil(3*3)
  EXPECT_EQ(recursion_depth(1024), 30u);
  // Non-powers of two round up.
  EXPECT_EQ(recursion_depth(5), 7u);  // 3*log2(5) = 6.97
  for (std::uint64_t n = 2; n <= 300; ++n) {
    const double exact = 3.0 * std::log2(static_cast<double>(n));
    EXPECT_EQ(recursion_depth(n),
              static_cast<std::uint32_t>(std::ceil(exact - 1e-9)))
        << n;
  }
}

TEST(ScheduleTest, WorstCaseRoundComplexityIsCubic) {
  // T(K) with K = ceil(3 log2 n) is <= 3(2n)^3 and >= n^3 (Lemma 10).
  for (std::uint64_t n : {4ULL, 16ULL, 100ULL, 1024ULL}) {
    const double t = static_cast<double>(schedule_duration(recursion_depth(n)));
    const double cube = static_cast<double>(n) * n * n;
    EXPECT_GE(t, 0.9 * cube) << n;
    EXPECT_LE(t, 24.0 * cube) << n;
  }
}

TEST(ScheduleTest, FastDepthMatchesEll) {
  // K2 = ceil(ell * log2 log2 n), ell = 1/log2(4/3).
  EXPECT_EQ(fast_recursion_depth(2), 1u);
  for (std::uint64_t n : {16ULL, 256ULL, 4096ULL, 1048576ULL}) {
    const double expected =
        std::ceil(kEll * std::log2(std::log2(static_cast<double>(n))) - 1e-9);
    EXPECT_EQ(fast_recursion_depth(n), static_cast<std::uint32_t>(expected))
        << n;
  }
  // Depth grows like log log n: tiny even for huge n.
  EXPECT_LE(fast_recursion_depth(1'000'000), 11u);
}

TEST(ScheduleTest, GreedyBaseRoundsEvenAndLogarithmic) {
  for (std::uint64_t n : {2ULL, 10ULL, 100ULL, 1000ULL, 100000ULL}) {
    const std::uint64_t r = greedy_base_rounds(n);
    EXPECT_EQ(r % 2, 0u);
    EXPECT_GE(r, 2u);
    const double c_log_n = 6.0 * std::log2(static_cast<double>(n));
    EXPECT_GE(static_cast<double>(r), c_log_n - 2.0);
    EXPECT_LE(static_cast<double>(r), c_log_n + 2.0);
  }
}

TEST(ScheduleTest, Figure1LabelsExactlyMatchPaper) {
  // The paper's Figure 1: a four-level tree labeled
  // (1,29)(2,14)(3,7)(4,4)(6,6)(9,13)(10,10)(12,12)(16,28)(17,21)
  // (18,18)(20,20)(23,27)(24,24)(26,26), pre-order.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {1, 29}, {2, 14}, {3, 7},   {4, 4},   {6, 6},
      {9, 13}, {10, 10}, {12, 12}, {16, 28}, {17, 21},
      {18, 18}, {20, 20}, {23, 27}, {24, 24}, {26, 26}};
  const auto tree = figure1_tree(3);
  ASSERT_EQ(tree.size(), expected.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(tree[i].reach, expected[i].first) << "node " << i;
    EXPECT_EQ(tree[i].finish, expected[i].second) << "node " << i;
  }
}

TEST(ScheduleTest, Figure1TreeShape) {
  const auto tree = figure1_tree(4);
  EXPECT_EQ(tree.size(), (1u << 5) - 1);  // full binary tree, 5 levels
  std::map<std::uint32_t, int> per_depth;
  for (const TreeNode& node : tree) ++per_depth[node.depth];
  for (std::uint32_t d = 0; d <= 4; ++d) EXPECT_EQ(per_depth[d], 1 << d);
}

TEST(ScheduleTest, ExecutionTreeWindowsNestProperly) {
  const std::uint64_t base = 4;
  const auto tree = execution_tree(5, base);
  // Windows of children lie inside the parent's window; siblings are
  // disjoint and separated by exactly the 2 synchronization rounds.
  std::map<std::pair<std::uint32_t, std::uint64_t>, TreeNode> by_key;
  for (const TreeNode& node : tree) by_key[{node.depth, node.path}] = node;
  for (const TreeNode& node : tree) {
    if (node.k == 0) continue;
    const TreeNode& left = by_key.at({node.depth + 1, node.path << 1});
    const TreeNode& right = by_key.at({node.depth + 1, (node.path << 1) | 1});
    EXPECT_EQ(left.reach, node.reach + 1);
    EXPECT_EQ(right.reach, left.finish + 3);  // sync + 2nd detection rounds
    EXPECT_EQ(node.finish, right.finish);
    EXPECT_EQ(node.finish - node.reach + 1, schedule_duration(node.k, base));
  }
}

TEST(ScheduleTest, RenderTreeMentionsLabels) {
  const std::string text = render_tree(figure1_tree(2));
  EXPECT_NE(text.find("1, 13"), std::string::npos);
  EXPECT_NE(text.find("(k=0)"), std::string::npos);
}

}  // namespace
}  // namespace slumber::core
