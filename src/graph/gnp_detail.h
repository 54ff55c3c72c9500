// Internal shared core of the G(n, p) generator family. Included by
// generators.cc (legacy single-stream gnp) and sharded_gnp.cc
// (counter-based per-block sharded builders); not part of the public
// generator API.
#pragma once

#include <cmath>
#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace slumber::gen::detail {

/// Batagelj-Brandes geometric-skipping enumeration of the G(n, p) pairs
/// whose higher endpoint v lies in [row_begin, row_end): streams every
/// sampled edge (u, v) with u < v to `fn`, v-major with both
/// coordinates ascending. O(rows + edges) expected; requires
/// 0 < p < 1. Restarting at a row boundary is distribution-exact (the
/// underlying per-pair Bernoulli process is memoryless), which is what
/// lets the sharded builders give every vertex block its own stream.
template <typename Fn>
void for_each_gnp_edge_rows(VertexId row_begin, VertexId row_end, double p,
                            Rng& rng, Fn&& fn) {
  const double log1mp = std::log1p(-p);
  std::int64_t v = row_begin < 1 ? 1 : static_cast<std::int64_t>(row_begin);
  std::int64_t w = -1;
  const auto vend = static_cast<std::int64_t>(row_end);
  while (v < vend) {
    const double r = rng.uniform();
    w += 1 + static_cast<std::int64_t>(std::floor(std::log1p(-r) / log1mp));
    while (w >= v && v < vend) {
      w -= v;
      ++v;
    }
    if (v < vend) fn(static_cast<VertexId>(w), static_cast<VertexId>(v));
  }
}

/// K_n streamed straight into CSR (the p >= 1 degenerate case of the
/// sharded builders).
inline Graph complete_csr(VertexId n) {
  // Fill-constructed (not resize): PodVector::resize skips
  // initialization, and the n < 2 return below must hand from_csr
  // all-zero offsets.
  util::PodVector<CsrOffset> offsets(std::uint64_t{n} + 1, 0);
  if (n < 2) {
    return Graph::from_csr(n, std::move(offsets), {});
  }
  checked_edge_count(std::uint64_t{n} * (n - 1) / 2, "complete_csr");
  util::PodVector<VertexId> adjacency;
  adjacency.resize(std::uint64_t{n} * (n - 1));
  CsrOffset next = 0;
  for (VertexId v = 0; v < n; ++v) {
    offsets[std::uint64_t{v} + 1] = offsets[v] + (std::uint64_t{n} - 1);
    for (VertexId u = 0; u < n; ++u) {
      if (u != v) adjacency[next++] = u;
    }
  }
  return Graph::from_csr(n, std::move(offsets), std::move(adjacency));
}

}  // namespace slumber::gen::detail
