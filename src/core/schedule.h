// The recursion schedule of Algorithms 1 and 2.
//
// SleepingMISRecursive(k) takes a fixed, input-independent number of
// rounds T(k): this is what lets non-participating nodes sleep through a
// sibling recursive call and wake exactly when it returns (paper
// Section 3, "One important technical issue is synchronization").
//
//   T(0) = B                 (base-case duration; 0 for Algorithm 1,
//                             the fixed greedy budget for Algorithm 2)
//   T(k) = 2 T(k-1) + 3      (two recursive calls + 3 communication
//                             rounds: first isolated-node detection,
//                             synchronization, second detection)
//
// which solves to T(k) = 2^k (B + 3) - 3; with B = 0 this is the paper's
// T(k) = 3(2^k - 1) (Lemma 10).
//
// This header also reproduces the labeling convention of the paper's
// Figure 1 (a K=3 recursion tree whose vertices carry first-reach /
// finish times 1,29 / 2,14 / 16,28 / ...), which treats the base case as
// occupying one visible time slot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace slumber::core {

/// ell = 1 / log2(4/3): the truncation-depth constant of Algorithm 2
/// (paper Equation 2). log(n)^ell decay of (3/4)^depth reaches 1/log n.
inline constexpr double kEll = 2.4094208396532095;

/// T(k) with base-case duration `base`. T(0)=base, T(k)=2T(k-1)+3.
std::uint64_t schedule_duration(std::uint32_t k, std::uint64_t base = 0);

/// Deepest recursion whose schedule T(K) fits the coroutine engine's
/// 64-bit round clock: the largest K with 2^K (base + 3) - 3 < 2^64
/// (62 for Algorithm 1). Protocols reject deeper recursions up front;
/// past it T(K) wraps, and past K = 63 its shift is undefined.
std::uint32_t max_schedule_levels(std::uint64_t base = 0);

/// Recursion depth of Algorithm 1: K = ceil(3 log2 n) (0 when n <= 1).
std::uint32_t recursion_depth(std::uint64_t n);

/// Recursion depth of Algorithm 2: K2 = max(1, ceil(ell * log2 log2 n)).
std::uint32_t fast_recursion_depth(std::uint64_t n);

/// Fixed round budget of the greedy base case in Algorithm 2: the
/// smallest even number >= c * log2 n (and >= 2). The paper requires the
/// greedy algorithm to run for "exactly c log n rounds for some large
/// (but fixed) constant c".
std::uint64_t greedy_base_rounds(std::uint64_t n, double c = 6.0);

/// A vertex of the recursion tree with the paper's Figure-1 time labels.
struct TreeNode {
  std::uint32_t k = 0;        // frame parameter (depth from leaves)
  std::uint32_t depth = 0;    // depth from the root
  std::uint64_t path = 0;     // left/right turns from the root, 1 bit each
  std::uint64_t reach = 0;    // first time the vertex is reached
  std::uint64_t finish = 0;   // time computation finishes at the vertex
};

/// Full recursion tree of depth K under Figure 1's convention (base case
/// occupies one time slot, root reached at time 1). Pre-order.
std::vector<TreeNode> figure1_tree(std::uint32_t levels);

/// Same tree under the *execution* convention used by the simulator
/// (base case duration `base` rounds; reach = round of the frame's first
/// communication round; finish = last round of the frame's window).
std::vector<TreeNode> execution_tree(std::uint32_t levels,
                                     std::uint64_t base = 0);

/// ASCII rendering of a recursion tree ("(reach, finish)" labels),
/// mirroring the paper's Figure 1.
std::string render_tree(const std::vector<TreeNode>& tree);

}  // namespace slumber::core
