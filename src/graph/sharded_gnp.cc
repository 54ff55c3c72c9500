// G(n, p) generation, the repo's only G(n, p) builder: counter-based
// per-block RNG streams and a parallel two-pass CSR build.
//
// Pairs are sampled by Batagelj-Brandes geometric skipping. One RNG
// stream consumed across the whole vertex triangle would make the
// build inherently serial (pair t+1's draw depends on pair t's), so
// the triangle's rows are split into fixed-size vertex blocks
// (kBlockVertices rows per block, a constant — never a function of the
// lane count), and block b enumerates the G(n, p) pairs whose higher
// endpoint lies in its rows from its own counter-based stream,
// util::stream_rng(seed, b). Because each stream is a pure function of
// (seed, b) and each unordered pair belongs to exactly one block, the
// sampled edge set is a pure function of (n, p, seed): lane counts,
// block claim order, and interleaving cannot change it.
//
// Determinism of the *CSR layout* needs one more step. A vertex x's
// adjacency range is [down-neighbors u < x][up-neighbors v > x], both
// ascending:
//
//  * The down half is written only by block(x) — while the block walks
//    row x it appends each sampled u in ascending order. Single
//    writer, deterministic order.
//  * The up half receives x's higher neighbors from whichever blocks
//    own them; slots are claimed with a relaxed atomic cursor
//    fetch_add, so the *positions* depend on scheduling — but the
//    *set* does not. A final parallel per-vertex sort of the up half
//    restores the unique ascending layout, making the full CSR bitwise
//    identical at every lane count (the pool-less serial path runs the
//    identical block schedule and is the reference).
//
// Degree counting (pass 1) splits the same way: down-degrees have a
// single writer; up-degrees accumulate with relaxed atomic increments,
// whose sum is order-free.
//
// Both passes are software-pipelined through util::Lookahead. On x86 a
// relaxed fetch_add is a `lock xadd`, which waits for its cache line
// and drains the store buffer, so bumping up[u] or claiming cursor[u]
// the moment an edge is drawn pays one serialized miss per edge, and
// the fill pass a second one for the up-half store that the next lock
// drains. Instead each edge prefetches the line it will touch and
// touches it later: the degree pass bumps up[u] kBumpDepth edges on;
// the fill pass claims cursor[u] kClaimDepth edges on, prefetches the
// claimed slot, and stores kStoreDepth edges after that. Work only
// moves later within its block, so every count and slot set, and hence
// the CSR, is unchanged.
//
// Memory stays on the diet path: no edge list is staged, and the
// transient arrays (two u32 degree halves + the u64 cursor) are freed
// as soon as the offsets are fixed, so peak is CSR + ~16 bytes/vertex
// over the final graph. With a multi-lane pool the CSR arrays are
// pre-touched in ThreadPool::parallel_for_range's chunk layout so pages
// land near the lanes that later scan them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "graph/generators.h"
#include "obs/obs.h"
#include "util/alloc.h"
#include "util/lookahead.h"
#include "util/stream_rng.h"
#include "util/thread_pool.h"

namespace slumber::gen {

namespace {

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

/// Rows per counter-keyed stream. A constant so the edge set depends
/// only on (n, p, seed): at n = 10^8 this yields ~24k blocks (ample
/// dynamic load balancing — late blocks own linearly more pairs than
/// early ones), while n as small as ~10^4 still spans several blocks
/// so tests exercise the cross-block paths.
constexpr VertexId kBlockVertices = 4096;

/// Pipeline depths, in edges, from prefetching a line to touching it
/// (see the file comment). All-4 and all-16 measured within noise of
/// these on G(8M, 8/n); they change timing only, never the output.
constexpr std::size_t kBumpDepth = 16;
constexpr std::size_t kClaimDepth = 8;
constexpr std::size_t kStoreDepth = 8;

/// An up-half write of the fill pass: v goes to the claimed slot.
struct UpSlot {
  CsrOffset slot;
  VertexId v;
};

std::uint64_t block_count(VertexId n) {
  return (std::uint64_t{n} + kBlockVertices - 1) / kBlockVertices;
}

}  // namespace

Graph gnp_sharded_csr(VertexId n, double p, std::uint64_t seed,
                      const ShardedGnpOptions& options) {
  if (options.stats_out != nullptr) *options.stats_out = {};
  if (p <= 0.0 || n < 2) {
    util::PodVector<CsrOffset> offsets(std::uint64_t{n} + 1, 0);
    return Graph::from_csr(n, std::move(offsets), {}, options.pool);
  }
  if (p >= 1.0) return complete_csr(n);

  util::ThreadPool* pool = options.pool;
  const std::uint64_t blocks = block_count(n);
  obs::progress_phase("generate");
  obs::Span gen_span("gen", "gnp_sharded_csr", n);

  // --- pass 1: degree halves ----------------------------------------
  // down[x] = |{u < x adjacent to x}| (single writer: block(x));
  // up[u]   = |{v > u adjacent to u}| (relaxed atomic sum).
  util::PodVector<std::uint32_t> down =
      util::sharded_fill<std::uint32_t>(n, 0, pool);
  util::PodVector<std::uint32_t> up =
      util::sharded_fill<std::uint32_t>(n, 0, pool);
  std::atomic<std::uint64_t> edge_total{0};
  std::atomic<std::uint64_t> rng_digest{0};
  {
    obs::Span span("gen", "degree_pass", blocks);
    // Blocks are claimed in any order; every write is claim-order
    // independent.
    util::for_each_index(pool, blocks, [&](std::size_t b) {
      // SLUMBER-STREAM-DISCIPLINE(block-counter): one stream per vertex
      // block; the dense block id b is the stream key and blocks never
      // share a row, so no tag mixing is needed (see README).
      Rng rng = util::stream_rng(seed, b);
      const VertexId lo = static_cast<VertexId>(b * kBlockVertices);
      const VertexId hi = static_cast<VertexId>(
          std::min<std::uint64_t>(n, (b + 1) * kBlockVertices));
      util::Lookahead<VertexId, kBumpDepth> bumps;
      const auto bump = [&up](VertexId u) {
        std::atomic_ref<std::uint32_t>(up[u]).fetch_add(
            1, std::memory_order_relaxed);
      };
      std::uint64_t count = 0;
      for_each_gnp_edge_rows(lo, hi, p, rng, [&](VertexId u, VertexId v) {
        // v is a row of this block, so block(v) == b is its only writer.
        // NOLINTNEXTLINE(slumber-d5): v is a row of this block
        ++down[v];
        __builtin_prefetch(&up[u], 1);
        VertexId due = 0;
        if (bumps.push(u, &due)) bump(due);
        ++count;
      });
      bumps.drain(bump);
      edge_total.fetch_add(count, std::memory_order_relaxed);
    });
  }
  const std::uint64_t m = edge_total.load(std::memory_order_relaxed);
  checked_edge_count(m, "gnp_sharded_csr");

  // --- offsets + up-half cursors ------------------------------------
  util::PodVector<CsrOffset> offsets =
      util::sharded_fill<CsrOffset>(std::uint64_t{n} + 1, 0, pool);
  {
    obs::Span span("gen", "offsets", n);
    for (VertexId v = 0; v < n; ++v) {
      offsets[std::uint64_t{v} + 1] =
          offsets[v] + down[v] + up[v];
    }
  }
  // cursor[u] starts at the first slot of u's up half and is bumped by
  // a relaxed fetch_add per cross-block write in pass 2.
  util::PodVector<CsrOffset> cursor;
  cursor.resize(n);
  {
    obs::Span span("gen", "cursor_init", n);
    CsrOffset* cur = cursor.data();
    const CsrOffset* off = offsets.data();
    const std::uint32_t* dn = down.data();
    util::for_each_chunk(pool, n, [cur, off, dn](std::size_t, std::size_t lo,
                                                 std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) cur[v] = off[v] + dn[v];
    });
  }
  // Folded into offsets/cursor; genuinely release (swap — `= {}` would
  // retain capacity) before the adjacency allocation below.
  util::PodVector<std::uint32_t>().swap(up);

  // --- pass 2: fill -------------------------------------------------
  util::PodVector<VertexId> adjacency;
  adjacency.resize(offsets[n]);
  if (util::chunk_count(pool, offsets[n]) > 1) {
    // Deliberate page placement; every slot is overwritten below.
    VertexId* adj = adjacency.data();
    util::for_each_chunk(pool, offsets[n], [adj](std::size_t, std::size_t lo,
                                                  std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) adj[i] = 0;
    });
  }
  {
    obs::Span span("gen", "fill_pass", blocks);
    util::for_each_index(pool, blocks, [&](std::size_t b) {
      // SLUMBER-STREAM-DISCIPLINE(block-counter): same per-block stream
      // as the degree pass, replayed so pass 2 sees pass 1's edges.
      Rng rng = util::stream_rng(seed, b);
      const VertexId lo = static_cast<VertexId>(b * kBlockVertices);
      const VertexId hi = static_cast<VertexId>(
          std::min<std::uint64_t>(n, (b + 1) * kBlockVertices));
      util::Lookahead<Edge, kClaimDepth> claims;
      util::Lookahead<UpSlot, kStoreDepth> stores;
      const auto store = [&adjacency](const UpSlot& up_slot) {
        // The fetch_add in claim gave this slot to one edge; the sort
        // pass canonicalizes the order.
        // NOLINTNEXTLINE(slumber-d5): slot uniquely claimed by fetch_add
        adjacency[up_slot.slot] = up_slot.v;
      };
      const auto claim = [&](const Edge& e) {
        const CsrOffset slot =
            std::atomic_ref<CsrOffset>(cursor[e.u]).fetch_add(
                1, std::memory_order_relaxed);
        __builtin_prefetch(&adjacency[slot], 1);
        UpSlot due{};
        if (stores.push({slot, e.v}, &due)) store(due);
      };
      VertexId row = kInvalidVertex;
      CsrOffset row_cursor = 0;
      for_each_gnp_edge_rows(
          lo, hi, p, rng, [&](VertexId u, VertexId v) {
            if (v != row) {
              row = v;
              row_cursor = offsets[v];
            }
            // row_cursor walks offsets[v]..offsets[v]+down[v], a range
            // this block owns since block(v) == b.
            // NOLINTNEXTLINE(slumber-d5): row range owned by this block
            adjacency[row_cursor++] = u;  // down half, ascending in row
            __builtin_prefetch(&cursor[u], 1);
            Edge due;
            if (claims.push({u, v}, &due)) claim(due);
          });
      claims.drain(claim);
      stores.drain(store);
      // The stream's next draw after generation is a pure function of
      // (seed, b); the wrapping sum over blocks is order-free.
      rng_digest.fetch_add(rng.next(), std::memory_order_relaxed);
    });
  }
  util::PodVector<CsrOffset>().swap(cursor);

  // --- canonicalize the up halves -----------------------------------
  {
    obs::Span span("gen", "sort_up_halves", n);
    VertexId* adj = adjacency.data();
    const CsrOffset* off = offsets.data();
    const std::uint32_t* dn = down.data();
    util::for_each_chunk(pool, n, [adj, off, dn](std::size_t, std::size_t lo,
                                                 std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) {
        std::sort(adj + off[v] + dn[v], adj + off[v + 1]);
      }
    });
  }
  util::PodVector<std::uint32_t>().swap(down);

  if (options.stats_out != nullptr) {
    options.stats_out->blocks = blocks;
    options.stats_out->rng_digest =
        rng_digest.load(std::memory_order_relaxed);
  }
  return Graph::from_csr(n, std::move(offsets), std::move(adjacency), pool);
}

Graph gnp_avg_degree_sharded_csr(VertexId n, double avg_deg,
                                 std::uint64_t seed,
                                 const ShardedGnpOptions& options) {
  if (n < 2) return gnp_sharded_csr(n, 0.0, seed, options);
  return gnp_sharded_csr(n, gnp_probability_for_avg_degree(n, avg_deg), seed,
                         options);
}

}  // namespace slumber::gen
