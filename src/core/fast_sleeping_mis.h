// Algorithm 2 of the paper: the Fast Sleeping MIS algorithm.
//
// Identical to Algorithm 1 except that the recursion tree is truncated
// at depth K2 = ceil(ell * log log n) with ell = 1/log2(4/3) ~ 2.41
// (paper Equation 2), and each base case is solved by the
// parallel/distributed randomized greedy MIS algorithm
// (Coppersmith-Raghavan-Tompa / Blelloch-Fineman-Shun / Fischer-Noever)
// run for *exactly* R = Theta(log n) rounds so that every base cell
// takes the same wall time and the recursion stays synchronized.
//
// By Lemma 7 only ~n/log n nodes reach the base level in expectation, so
// charging each of them O(log n) awake rounds keeps the node-averaged
// awake complexity at O(1), while the makespan drops from Theta(n^3) to
// O(log^{ell+1} n) = O(log^3.41 n) (Theorem 2).
//
// The greedy base case draws one random rank per node (once); each
// 2-round iteration lets every active node whose (rank, id) beats all
// active neighbors join the MIS and announce; receivers of an
// announcement are eliminated. Decided nodes sleep out the rest of the
// fixed budget. This computes the lexicographically-first MIS of the
// cell w.r.t. decreasing (rank, id) -- the fact behind Corollary 1.
#pragma once

#include "core/instrumentation.h"
#include "sim/network.h"

namespace slumber::core {

struct FastSleepingMisOptions {
  /// Truncated depth K2; 0 means the paper's ceil(ell * log2 log2 n).
  std::uint32_t levels = 0;
  /// P[X_i = 1]; 1/2 in the paper.
  double coin_bias = 0.5;
  /// The constant c in the fixed greedy budget of c*log n rounds.
  double base_c = 6.0;
  /// Explicit base budget in rounds (>= 2; an odd budget sleeps its
  /// last round); 0 means greedy_base_rounds(n, base_c).
  std::uint64_t base_rounds = 0;
};

/// Protocol factory for Algorithm 2. Output 1 = in MIS, 0 = not. It
/// runs Algorithm 1's frame (core/sleeping_mis.cc) with the greedy base
/// case; ranks are rank_bits_for(n) bits wide (core/rank.h). Throws
/// std::invalid_argument on base_rounds == 1, a budget too short for
/// one greedy iteration.
sim::Protocol fast_sleeping_mis(FastSleepingMisOptions options = {},
                                RecursionTrace* trace = nullptr);

}  // namespace slumber::core
