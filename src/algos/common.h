// Small helpers shared by the baseline protocols.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/rank.h"

namespace slumber::algos {

// The random-priority helpers live with the greedy order they define,
// in core/rank.h: Algorithm 2's base case draws the same ranks.
using core::priority_beats;
using core::rank_bits_for;

/// Default iteration cap for the Las-Vegas-style loops: generous
/// multiple of the O(log n) w.h.p. bound so a genuine bug trips the
/// network's safety valve instead of looping forever.
inline std::uint64_t default_iteration_cap(std::uint64_t n) {
  const auto log_n = static_cast<std::uint64_t>(
      std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
  return 64 + 8 * log_n;
}

}  // namespace slumber::algos
