#include "core/rank.h"

#include <algorithm>
#include <numeric>

namespace slumber::core {

int compare_k_rank(const std::vector<std::uint8_t>& bits_u,
                   const std::vector<std::uint8_t>& bits_v, std::uint32_t k) {
  for (std::uint32_t i = k; i >= 1; --i) {
    if (bits_u[i] != bits_v[i]) return bits_u[i] < bits_v[i] ? -1 : 1;
  }
  return 0;
}

std::vector<VertexId> greedy_order_from_bits(const CoinBits& bits,
                                             std::uint32_t levels) {
  std::vector<VertexId> order(bits.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](VertexId a, VertexId b) {
                     const int cmp = compare_k_rank(bits[a], bits[b], levels);
                     if (cmp != 0) return cmp > 0;  // decreasing rank
                     return a < b;
                   });
  return order;
}

std::vector<VertexId> greedy_order_from_bits_and_base(
    const CoinBits& bits, std::uint32_t levels,
    const std::vector<std::uint64_t>& base_rank) {
  std::vector<VertexId> order(bits.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const int cmp = compare_k_rank(bits[a], bits[b], levels);
    if (cmp != 0) return cmp > 0;
    return priority_beats(base_rank[a], a, base_rank[b], b);
  });
  return order;
}

std::vector<std::uint8_t> lex_first_mis(const Graph& g,
                                        const std::vector<VertexId>& order) {
  std::vector<std::uint8_t> in_mis(g.num_vertices(), 0);
  std::vector<std::uint8_t> blocked(g.num_vertices(), 0);
  for (VertexId v : order) {
    if (blocked[v]) continue;
    in_mis[v] = 1;
    for (VertexId u : g.neighbors(v)) blocked[u] = 1;
  }
  return in_mis;
}

}  // namespace slumber::core
