#include "graph/graph.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "util/lookahead.h"

namespace slumber {

namespace {

/// Mirror-probe pipeline depths of Graph::from_csr, in probes. Depths
/// of 4 and of 16 measured within noise of these on G(8M, 8/n).
constexpr std::size_t kBoundsDepth = 8;
constexpr std::size_t kSearchDepth = 8;

/// One mirror probe: `key` must appear in the range of vertex `range`.
struct Probe {
  VertexId range;
  VertexId key;
};

}  // namespace

VertexId checked_vertex_count(std::uint64_t n, const char* what) {
  if (n > std::numeric_limits<VertexId>::max()) {
    throw std::overflow_error(std::string(what) + ": vertex count " +
                              std::to_string(n) + " overflows VertexId");
  }
  return static_cast<VertexId>(n);
}

std::uint64_t checked_edge_count(std::uint64_t m, const char* what) {
  if (m > std::numeric_limits<EdgeId>::max()) {
    throw std::overflow_error(std::string(what) + ": edge count " +
                              std::to_string(m) + " overflows EdgeId");
  }
  return m;
}

Graph::Graph(VertexId n, std::vector<Edge> edges) : n_(n) {
  checked_edge_count(edges.size(), "Graph");
  for (Edge& e : edges) {
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("Graph: edge endpoint out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph: self-loops are not allowed");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  num_edges_ = edges.size();

  std::vector<std::uint32_t> deg(n, 0);
  for (const Edge& e : edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  offsets_.assign(std::uint64_t{n} + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + deg[v];
    max_degree_ = std::max(max_degree_, deg[v]);
  }
  adjacency_.resize(offsets_[n]);

  // Sorted (u, v) edges fill each range in port order: a vertex's lower
  // neighbors arrive first (as u, ascending), then its higher ones (as
  // v, ascending).
  std::vector<CsrOffset> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    adjacency_[cursor[e.u]++] = e.v;
    adjacency_[cursor[e.v]++] = e.u;
  }
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> list;
  list.reserve(num_edges_);
  for_each_edge([&list](VertexId u, VertexId v) { list.push_back({u, v}); });
  return list;
}

Graph Graph::from_csr(VertexId n, util::PodVector<CsrOffset> offsets,
                      util::PodVector<VertexId> adjacency,
                      util::ThreadPool* pool) {
  obs::Span span("gen", "from_csr", n);
  if (offsets.size() != std::uint64_t{n} + 1 || offsets.front() != 0 ||
      offsets.back() != adjacency.size() || adjacency.size() % 2 != 0) {
    throw std::invalid_argument("Graph::from_csr: malformed CSR shape");
  }
  // With the endpoints pinned above, monotone offsets keep every range
  // inside the adjacency array. Checked in full before any range is
  // read: the mirror probes below read other blocks' ranges.
  if (!std::is_sorted(offsets.begin(), offsets.end())) {
    throw std::invalid_argument("Graph::from_csr: offsets not monotone");
  }
  checked_edge_count(adjacency.size() / 2, "Graph::from_csr");
  Graph g;
  g.n_ = n;
  g.num_edges_ = adjacency.size() / 2;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  // Validate the caller's contract: each range sorted strictly
  // ascending (no duplicates), in-range endpoints, no self-loops, and
  // symmetric membership ({u,v} in both ranges — checked cheaply via
  // degree-balanced mirror lookups). The scan is per-vertex
  // independent, so it runs in blocks of kCsrCheckBlock vertices that
  // the pool's lanes claim as they finish, with per-block partial
  // mirror counts and degree maxima merged after the barrier. Blocks,
  // not one equal range per lane: v probes only its neighbors above
  // it, so low vertices carry most of the probes (the first of four
  // equal ranges of G(n, p) gets 7/16 of them) and an equal split
  // would leave the pass waiting on one lane.
  //
  // A mirror probe looks v up in the range of a random u > v, so it is
  // software-pipelined through two util::Lookahead stages: prefetch
  // offsets[u]; kBoundsDepth probes later prefetch the range's first
  // line; kSearchDepth probes after that search it. Probes only run
  // later, so the count, and with it the verdict, is unchanged.
  const std::size_t blocks =
      (std::size_t{n} + kCsrCheckBlock - 1) / kCsrCheckBlock;
  std::vector<std::uint64_t> mirrored_parts(blocks, 0);
  std::vector<std::uint32_t> degree_parts(blocks, 0);
  const auto validate_block = [&](std::size_t b) {
    const VertexId begin = static_cast<VertexId>(b * kCsrCheckBlock);
    const VertexId end = static_cast<VertexId>(
        std::min<std::size_t>(n, (b + 1) * kCsrCheckBlock));
    const CsrOffset* off = g.offsets_.data();
    const VertexId* adj = g.adjacency_.data();
    util::Lookahead<Probe, kBoundsDepth> bounds;
    util::Lookahead<Probe, kSearchDepth> searches;
    // Tallied in locals and stored once: neighboring blocks' slots
    // share cache lines across lanes.
    std::uint64_t found = 0;
    std::uint32_t max_degree = 0;
    const auto search = [&g, &found](const Probe& probe) {
      if (g.port_to(probe.range, probe.key) >= 0) ++found;
    };
    const auto locate = [&](const Probe& probe) {
      __builtin_prefetch(adj + off[probe.range]);
      Probe due{};
      if (searches.push(probe, &due)) search(due);
    };
    for (VertexId v = begin; v < end; ++v) {
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (u >= n) {
          throw std::invalid_argument(
              "Graph::from_csr: endpoint out of range");
        }
        if (u == v) {
          throw std::invalid_argument("Graph::from_csr: self-loop");
        }
        if (i > 0 && nbrs[i - 1] >= u) {
          throw std::invalid_argument(
              "Graph::from_csr: adjacency range not sorted ascending");
        }
        if (u > v) {
          __builtin_prefetch(off + u);
          Probe due{};
          if (bounds.push({u, v}, &due)) locate(due);
        }
      }
      max_degree = std::max(max_degree, g.degree(v));
    }
    bounds.drain(locate);
    searches.drain(search);
    mirrored_parts[b] = found;
    degree_parts[b] = max_degree;
  };
  util::for_each_index(pool, blocks, validate_block);
  std::uint64_t mirrored = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    mirrored += mirrored_parts[b];
    g.max_degree_ = std::max(g.max_degree_, degree_parts[b]);
  }
  if (mirrored != g.num_edges_) {
    throw std::invalid_argument("Graph::from_csr: asymmetric adjacency");
  }
  return g;
}

std::int64_t Graph::port_to(VertexId v, VertexId u) const {
  auto nbrs = neighbors(v);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
  if (it == nbrs.end() || *it != u) return -1;
  return it - nbrs.begin();
}

std::pair<Graph, std::vector<VertexId>> Graph::induced(
    std::span<const VertexId> vertices) const {
  // Sorted (original, new) pairs instead of a hash map: lookups are
  // lower_bound on a contiguous array, and the relabeling carries no
  // implementation-defined container state (lint rule slumber-d2).
  std::vector<VertexId> to_original(vertices.begin(), vertices.end());
  std::vector<std::pair<VertexId, VertexId>> to_new;
  to_new.reserve(to_original.size());
  for (VertexId i = 0; i < to_original.size(); ++i) {
    to_new.emplace_back(to_original[i], i);
  }
  std::sort(to_new.begin(), to_new.end());
  if (std::adjacent_find(to_new.begin(), to_new.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }) != to_new.end()) {
    throw std::invalid_argument("Graph::induced: duplicate vertex");
  }
  const auto lookup = [&to_new](VertexId original) -> std::int64_t {
    auto it = std::lower_bound(
        to_new.begin(), to_new.end(), original,
        [](const auto& entry, VertexId key) { return entry.first < key; });
    if (it == to_new.end() || it->first != original) return -1;
    return it->second;
  };
  std::vector<Edge> sub_edges;
  for_each_edge([&](VertexId u, VertexId v) {
    const std::int64_t iu = lookup(u);
    if (iu < 0) return;
    const std::int64_t iv = lookup(v);
    if (iv < 0) return;
    sub_edges.push_back(
        {static_cast<VertexId>(iu), static_cast<VertexId>(iv)});
  });
  return {
      Graph(static_cast<VertexId>(to_original.size()), std::move(sub_edges)),
      std::move(to_original)};
}

Graph Graph::line_graph() const {
  const auto m = checked_vertex_count(num_edges_, "Graph::line_graph");
  // Bucket edge ids by endpoint; any two edge ids in the same bucket are
  // adjacent in the line graph.
  std::vector<std::vector<EdgeId>> incident(n_);
  EdgeId e = 0;
  for_each_edge([&](VertexId u, VertexId v) {
    incident[u].push_back(e);
    incident[v].push_back(e);
    ++e;
  });
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n_; ++v) {
    const auto& bucket = incident[v];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        edges.push_back({bucket[i], bucket[j]});
      }
    }
  }
  return Graph(m, std::move(edges));
}

std::string Graph::summary() const {
  return "n=" + std::to_string(n_) + " m=" + std::to_string(num_edges_) +
         " maxdeg=" + std::to_string(max_degree_);
}

}  // namespace slumber
