// k-ranks (paper Definition 1) and the lexicographically-first MIS order.
//
// For a node v with coin bits X_K..X_1, the k-rank is the sequence
// r_k(v) = (X_k, X_{k-1}, ..., X_1, -1). Lemma 4 shows Algorithm 1 adds v
// to the MIS iff every neighbor with strictly larger k-rank ends up out,
// and Corollary 1 concludes that the algorithm computes exactly the
// lexicographically-first MIS with respect to the random order "by
// decreasing K-rank". This header provides that order so tests and the
// E13 bench can check the equivalence against a sequential greedy.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace slumber::core {

/// Random-rank width for a network of size n: 3 log2 n bits keeps ranks
/// collision-free w.h.p. while staying within the CONGEST budget (ids
/// break any ties deterministically regardless). Algorithm 2's greedy
/// base case and the baselines' random priorities all draw this many.
inline std::uint32_t rank_bits_for(std::uint64_t n) {
  const auto log_n = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
  return std::min<std::uint32_t>(3 * std::max<std::uint32_t>(log_n, 1), 48);
}

/// Strict priority order on (value, id) pairs: larger wins. The greedy
/// base case and the randomized greedy baseline process nodes in this
/// order.
inline bool priority_beats(std::uint64_t value_a, std::uint64_t id_a,
                           std::uint64_t value_b, std::uint64_t id_b) {
  return value_a != value_b ? value_a > value_b : id_a > id_b;
}

/// Per-node coin bits: bits[v][i] is X_i of node v, for i in [1, K]
/// (index 0 unused).
using CoinBits = std::vector<std::vector<std::uint8_t>>;

/// Lexicographic comparison of k-ranks: returns -1/0/+1 as
/// r_k(u) </==/> r_k(v). The trailing sentinel -1 never differs, so it
/// is ignored.
int compare_k_rank(const std::vector<std::uint8_t>& bits_u,
                   const std::vector<std::uint8_t>& bits_v, std::uint32_t k);

/// The processing order of the equivalent sequential greedy MIS:
/// vertices sorted by lexicographically *decreasing* K-rank (ties —
/// which occur with probability O(n^-1) — broken by vertex id, matching
/// the simulator's deterministic tie-break).
std::vector<VertexId> greedy_order_from_bits(const CoinBits& bits,
                                             std::uint32_t levels);

/// The processing order of the equivalent greedy for Algorithm 2:
/// primary key decreasing K2-rank, secondary key decreasing
/// (base_rank, id) inside each base cell.
std::vector<VertexId> greedy_order_from_bits_and_base(
    const CoinBits& bits, std::uint32_t levels,
    const std::vector<std::uint64_t>& base_rank);

/// Sequential greedy MIS: process vertices in `order`; each joins the
/// MIS iff no earlier neighbor joined. This is the "lexicographically
/// first MIS" of Coppersmith et al. for that order.
std::vector<std::uint8_t> lex_first_mis(const Graph& g,
                                        const std::vector<VertexId>& order);

}  // namespace slumber::core
