// Graph substrate for the slumber library.
//
// A slumber::Graph is a simple undirected graph stored in compressed
// sparse row (CSR) form. It is the static topology on which the
// synchronous CONGEST simulator (src/sim) runs. Vertices are dense
// integers [0, n). Each vertex's incident edges are numbered by "ports"
// 0..deg(v)-1 in the order they appear in the adjacency array, matching
// the port-numbering assumption of the model in the paper (Section 1.2).
//
// The CSR arrays are the only stored form: edges() and for_each_edge()
// derive the sorted edge list from them. Graphs are immutable after
// construction; to assemble one incrementally, collect its edges in a
// std::vector<Edge> and hand that to Graph(n, edges).
// All operations that return neighbor lists return std::span views into
// the CSR arrays (no allocation).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/alloc.h"

namespace slumber {

/// Dense vertex identifier. 32 bits cover the bulk engine's 10M+-node
/// regime with headroom to ~4.29 billion vertices; constructors guard
/// against counts that would wrap (see checked_vertex_count below).
using VertexId = std::uint32_t;

/// Identifier of an undirected edge (index into Graph::edges()).
/// Graph construction throws if an edge set would overflow this type.
using EdgeId = std::uint32_t;

/// CSR offset type. Explicitly 64-bit (not size_t, which is 32-bit on
/// some platforms): adjacency holds 2|E| entries, which exceeds 2^32
/// well before |E| overflows EdgeId.
using CsrOffset = std::uint64_t;
static_assert(sizeof(CsrOffset) == 8, "CSR offsets must be 64-bit");

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// An undirected edge as an (u, v) pair with u <= v after normalization.
struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Immutable simple undirected graph in CSR form.
class Graph {
 public:
  /// Empty graph (0 vertices), with the one offset every CSR holds.
  Graph() = default;

  /// Builds a graph with `n` vertices from an edge list, which is freed
  /// once the CSR is built. Either orientation of an edge is accepted;
  /// self-loops are rejected (throws std::invalid_argument); duplicate
  /// edges are merged. Endpoints must be < n.
  Graph(VertexId n, std::vector<Edge> edges);

  /// Vertices per block of from_csr's validation scan.
  static constexpr VertexId kCsrCheckBlock = 4096;

  /// Construction straight from CSR arrays. `offsets` must have n+1
  /// monotone entries with offsets[0] == 0 and offsets[n] ==
  /// adjacency.size(); every adjacency range must be sorted ascending
  /// with in-range endpoints and no self-loops or duplicates, and edge
  /// {u,v} must appear in both endpoint ranges (all validated, throws
  /// std::invalid_argument).
  /// The offsets are validated in full before any range is read, so a
  /// malformed array is rejected without reading out of bounds.
  /// This is the 10^8-node path: peak memory is the CSR arrays
  /// themselves, skipping the ~8 bytes/edge staging list of
  /// Graph(n, edges) (see gen::gnp_sharded_csr). The arrays
  /// are util::PodVector so producers can size them without a serial
  /// zero-fill and first-touch pages from the lanes that will scan them
  /// (util::sharded_fill). The validation scan runs in blocks of
  /// kCsrCheckBlock vertices; `pool`, when non-null, spreads the blocks
  /// over its lanes (borrowed; accepted graphs are identical for every
  /// lane count — only which malformed-input error surfaces first can
  /// vary).
  static Graph from_csr(VertexId n, util::PodVector<CsrOffset> offsets,
                        util::PodVector<VertexId> adjacency,
                        util::ThreadPool* pool = nullptr);

  VertexId num_vertices() const { return n_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Degree of vertex v.
  std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Maximum degree over all vertices (0 for the empty graph).
  std::uint32_t max_degree() const { return max_degree_; }

  /// Neighbors of v, sorted ascending. The i-th entry is the neighbor on
  /// port i of v.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// The neighbor reached through port `port` of vertex v.
  VertexId neighbor(VertexId v, std::uint32_t port) const {
    return adjacency_[offsets_[v] + port];
  }

  /// CSR offset of v's first adjacency slot: adjacency_offset(v) + port
  /// indexes flat per-directed-edge state arrays (the bulk engine's
  /// per-port protocol state, e.g. Israeli-Itai active ports).
  CsrOffset adjacency_offset(VertexId v) const { return offsets_[v]; }

  /// Port of v that leads to neighbor u, or -1 if {v,u} is not an edge.
  /// Logarithmic in deg(v).
  std::int64_t port_to(VertexId v, VertexId u) const;

  /// True iff {u, v} is an edge.
  bool has_edge(VertexId u, VertexId v) const { return port_to(u, v) >= 0; }

  /// The edges as (u, v) pairs with u < v, sorted; edge id e is the
  /// e-th. Built from the CSR on every call (O(m) time, 8 bytes per
  /// edge), so hoist it out of loops; for_each_edge streams the same
  /// list without storing it.
  std::vector<Edge> edges() const;

  /// Calls fn(u, v) for every edge, in edges() order.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (VertexId u = 0; u < n_; ++u) {
      for (const VertexId v : neighbors(u)) {
        if (v > u) fn(u, v);
      }
    }
  }

  /// True iff the vertex has no incident edges.
  bool is_isolated(VertexId v) const { return degree(v) == 0; }

  /// Sum of degrees = 2|E|.
  std::size_t degree_sum() const { return adjacency_.size(); }

  /// Subgraph induced by `vertices` (need not be sorted; duplicates are
  /// an error). Returns the new graph plus the mapping new-id -> old-id.
  std::pair<Graph, std::vector<VertexId>> induced(
      std::span<const VertexId> vertices) const;

  /// Line graph L(G): one vertex per edge of G; two vertices adjacent iff
  /// the corresponding edges share an endpoint. Used to reduce maximal
  /// matching to MIS (see src/algos/matching.h).
  Graph line_graph() const;

  /// True iff this and `other` have bitwise-identical CSR arrays (same
  /// vertex count, offsets, and adjacency) — equal topology with equal
  /// port numbering. The determinism gates of the sharded generators
  /// compare lane-count variants with this.
  bool same_csr(const Graph& other) const {
    return n_ == other.n_ && offsets_ == other.offsets_ &&
           adjacency_ == other.adjacency_;
  }

  /// A human-readable one-line summary ("n=8 m=12 maxdeg=5").
  std::string summary() const;

 private:
  VertexId n_ = 0;
  std::uint32_t max_degree_ = 0;
  std::uint64_t num_edges_ = 0;
  util::PodVector<CsrOffset> offsets_{0};  // size n_+1
  util::PodVector<VertexId> adjacency_;    // size 2|E|
};

/// Narrows a 64-bit vertex count to VertexId, throwing std::overflow_error
/// (naming `what`) when the count cannot be represented. Generators use
/// this so products like rows*cols fail loudly instead of wrapping.
VertexId checked_vertex_count(std::uint64_t n, const char* what);

/// Guards a 64-bit edge count against EdgeId overflow; returns the count.
std::uint64_t checked_edge_count(std::uint64_t m, const char* what);

}  // namespace slumber
