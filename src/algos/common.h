// Small helpers shared by the baseline protocols.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/join_round.h"
#include "core/rank.h"

namespace slumber::algos {

// The random-priority helpers live with the greedy order they define,
// in core/rank.h, and the announce-and-join round in core/join_round.h:
// Algorithm 2's base case draws the same ranks and runs the same round.
using core::beaten;
using core::heard;
using core::join_round;
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

/// An options struct's iteration cap: `requested`, or the default when
/// it is 0.
inline std::uint64_t iteration_cap(std::uint64_t requested, std::uint64_t n) {
  return requested != 0 ? requested : default_iteration_cap(n);
}

}  // namespace slumber::algos
