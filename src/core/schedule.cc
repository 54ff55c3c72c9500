#include "core/schedule.h"

#include <cmath>
#include <sstream>

namespace slumber::core {

std::uint64_t schedule_duration(std::uint32_t k, std::uint64_t base) {
  // T(k) = 2^k (base + 3) - 3.
  return ((base + 3) << k) - 3;
}

std::uint32_t max_schedule_levels(std::uint64_t base) {
  // 2^K (base + 3) - 3 <= 2^64 - 1, in 128 bits: base + 3 < 2^65 and
  // K + 1 <= 63, so no shift below overflows.
  using u128 = unsigned __int128;
  const u128 limit = (u128{1} << 64) + 2;
  std::uint32_t k = 0;
  while (((u128{base} + 3) << (k + 1)) <= limit) ++k;
  return k;
}

std::uint32_t recursion_depth(std::uint64_t n) {
  if (n <= 1) return 0;
  // K = ceil(3 log2 n): smallest K with 2^K >= n^3, computed exactly.
  const unsigned __int128 cube =
      static_cast<unsigned __int128>(n) * n * n;
  std::uint32_t k = 0;
  unsigned __int128 power = 1;
  while (power < cube) {
    power <<= 1;
    ++k;
  }
  return k;
}

std::uint32_t fast_recursion_depth(std::uint64_t n) {
  if (n <= 2) return 1;
  const double log_n = std::log2(static_cast<double>(n));
  const double value = kEll * std::log2(log_n);
  const auto k = static_cast<std::int64_t>(std::ceil(value - 1e-9));
  return k < 1 ? 1u : static_cast<std::uint32_t>(k);
}

std::uint64_t greedy_base_rounds(std::uint64_t n, double c) {
  const double log_n = std::log2(static_cast<double>(n < 2 ? 2 : n));
  auto rounds = static_cast<std::uint64_t>(std::ceil(c * log_n));
  if (rounds < 2) rounds = 2;
  if (rounds % 2 != 0) ++rounds;  // greedy iterations are 2 rounds each
  return rounds;
}

namespace {

// Figure 1 convention: leaf occupies a single slot (finish == reach);
// an interior vertex reached at t has
//   left.reach = t + 1, right.reach = left.finish + 2,
//   finish = right.finish + 1.
std::uint64_t build_figure1(std::uint32_t k, std::uint32_t depth,
                            std::uint64_t path, std::uint64_t reach,
                            std::vector<TreeNode>& out) {
  TreeNode node{k, depth, path, reach, 0};
  const std::size_t index = out.size();
  out.push_back(node);
  if (k == 0) {
    out[index].finish = reach;
    return reach;
  }
  const std::uint64_t left_finish =
      build_figure1(k - 1, depth + 1, path << 1, reach + 1, out);
  const std::uint64_t right_finish = build_figure1(
      k - 1, depth + 1, (path << 1) | 1, left_finish + 2, out);
  out[index].finish = right_finish + 1;
  return out[index].finish;
}

// Execution convention: frame k reached at round t occupies the window
// [t, t + T(k) - 1]; its first isolated-node-detection round is t; the
// left child starts at t+1; the right child at t + T(k-1) + 3.
void build_execution(std::uint32_t k, std::uint32_t depth, std::uint64_t path,
                     std::uint64_t reach, std::uint64_t base,
                     std::vector<TreeNode>& out) {
  TreeNode node{k, depth, path, reach,
                reach + schedule_duration(k, base) - 1};
  out.push_back(node);
  if (k == 0) return;
  const std::uint64_t child_span = schedule_duration(k - 1, base);
  build_execution(k - 1, depth + 1, path << 1, reach + 1, base, out);
  build_execution(k - 1, depth + 1, (path << 1) | 1,
                  reach + 1 + child_span + 2, base, out);
}

}  // namespace

std::vector<TreeNode> figure1_tree(std::uint32_t levels) {
  std::vector<TreeNode> out;
  build_figure1(levels, 0, 0, 1, out);
  return out;
}

std::vector<TreeNode> execution_tree(std::uint32_t levels,
                                     std::uint64_t base) {
  std::vector<TreeNode> out;
  build_execution(levels, 0, 0, 1, base, out);
  return out;
}

std::string render_tree(const std::vector<TreeNode>& tree) {
  std::ostringstream out;
  for (const TreeNode& node : tree) {
    for (std::uint32_t i = 0; i < node.depth; ++i) out << "  ";
    out << "(k=" << node.k << ") " << node.reach << ", " << node.finish
        << '\n';
  }
  return out.str();
}

}  // namespace slumber::core
