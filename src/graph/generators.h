// Workload generators: the graph families used throughout the tests and
// the benchmark harness.
//
// The paper's motivation is ad-hoc wireless / sensor networks, and its
// analysis is for general graphs (including arboricity-Theta(n) ones,
// Section 1.3). The families below cover: dense and sparse Erdos-Renyi,
// bounded-degree structured topologies (cycle, grid, torus, hypercube),
// high-arboricity graphs (complete, complete bipartite, lollipop),
// heavy-tailed degree graphs (Barabasi-Albert), trees, and random
// geometric / unit-disk graphs as the sensor-network stand-in.
//
// All generators are deterministic in (parameters, seed).
//
// G(n, p) has one seed schedule, the counter-based per-block one
// (gnp_sharded_csr / gnp_avg_degree_sharded_csr, after Batagelj and
// Brandes' geometric skipping): vertices are split into fixed-size
// blocks and block b draws from util::stream_rng(seed, b), a pure
// function of (seed, b). Blocks are independent, so the two CSR passes
// shard across a thread pool, and the output is bitwise identical at
// every lane count (including the pool-less serial path).
// Bit-reproducible given (n, p, seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace slumber::util {
class ThreadPool;
}  // namespace slumber::util

namespace slumber::gen {

/// Graph with n vertices and no edges.
Graph empty(VertexId n);

/// Complete graph K_n.
Graph complete(VertexId n);

/// Cycle C_n (requires n >= 3).
Graph cycle(VertexId n);

/// Path P_n.
Graph path(VertexId n);

/// Star K_{1,n-1}: vertex 0 is the hub.
Graph star(VertexId n);

/// Complete bipartite K_{a,b}; sides are [0,a) and [a,a+b).
Graph complete_bipartite(VertexId a, VertexId b);

/// rows x cols grid (4-neighbor).
Graph grid(VertexId rows, VertexId cols);

/// rows x cols torus (grid with wraparound; requires rows,cols >= 3).
Graph torus(VertexId rows, VertexId cols);

/// d-dimensional hypercube Q_d (n = 2^d vertices).
Graph hypercube(std::uint32_t d);

/// Complete binary tree with n vertices (vertex 0 is the root).
Graph binary_tree(VertexId n);

/// Lollipop graph: clique of size k with a path of length n-k attached.
/// High arboricity head, low arboricity tail.
Graph lollipop(VertexId n, VertexId clique_size);

/// Caterpillar: a spine path of `spine` vertices, each with `legs` leaves.
Graph caterpillar(VertexId spine, VertexId legs);

/// Disjoint union of n/k cliques of size k (plus one smaller remainder).
Graph clique_chain(VertexId n, VertexId clique_size);

/// The edge probability gnp_avg_degree_sharded_csr derives from a
/// target average degree: min(1, avg_deg / (n - 1)). Requires n >= 2.
double gnp_probability_for_avg_degree(VertexId n, double avg_deg);

/// Optional instrumentation returned by the sharded builders.
struct ShardedGnpStats {
  /// Number of per-vertex RNG blocks the build used.
  std::uint64_t blocks = 0;
  /// Wrapping sum over blocks of each block stream's next draw after
  /// generation. Each term is a pure function of (seed, block), so the
  /// digest is bitwise identical for every lane count — the
  /// final-RNG-state determinism probe of tests/sharded_gen_test.cc.
  std::uint64_t rng_digest = 0;
};

struct ShardedGnpOptions {
  /// Shards both CSR passes (degree count, fill) and the up-range sort
  /// over this pool's lanes; null runs the identical block schedule
  /// serially (the bitwise reference). With more than one lane the CSR
  /// arrays are also first touched in the contiguous chunks
  /// ThreadPool::parallel_for_range later hands to scanning lanes
  /// (util::sharded_fill): page placement only, contents unaffected.
  /// Borrowed, not owned.
  util::ThreadPool* pool = nullptr;
  /// When non-null, receives build instrumentation.
  ShardedGnpStats* stats_out = nullptr;
};

/// Erdos-Renyi G(n, p) under the counter-based per-block seed schedule
/// (see the header comment), streamed straight into CSR with no
/// edge-list stage, both passes parallel over the options' pool.
/// Output is a pure function of (n, p, seed): bitwise identical for
/// every lane count, including the serial pool-less path.
Graph gnp_sharded_csr(VertexId n, double p, std::uint64_t seed,
                      const ShardedGnpOptions& options = {});

/// Erdos-Renyi with expected average degree `avg_deg`
/// (p = avg_deg/(n-1)).
Graph gnp_avg_degree_sharded_csr(VertexId n, double avg_deg,
                                 std::uint64_t seed,
                                 const ShardedGnpOptions& options = {});

/// Uniform random labeled tree (Pruefer sequence).
Graph random_tree(VertexId n, Rng& rng);

/// Random d-regular graph via the configuration model; resamples until
/// simple (requires n*d even; practical for d << n).
Graph random_regular(VertexId n, std::uint32_t d, Rng& rng);

/// Barabasi-Albert preferential attachment: each new vertex attaches
/// `m` edges. Produces heavy-tailed degrees.
Graph barabasi_albert(VertexId n, std::uint32_t m, Rng& rng);

/// Random geometric graph: n points uniform in the unit square, edge iff
/// euclidean distance <= radius. The unit-disk model of sensor networks.
/// Optionally returns the sampled coordinates via `coords_out`.
Graph random_geometric(VertexId n, double radius, Rng& rng,
                       std::vector<std::pair<double, double>>* coords_out =
                           nullptr);

/// Named graph families for parameterized tests and benches.
enum class Family {
  kEmpty,
  kComplete,
  kCycle,
  kPath,
  kStar,
  kGrid,
  kTorus,
  kHypercube,
  kBinaryTree,
  kLollipop,
  kCaterpillar,
  kCliqueChain,
  kGnpSparse,     // G(n, 8/n)
  kGnpDense,      // G(n, 0.5)
  kRandomTree,
  kRandomRegular,  // 4-regular
  kBarabasiAlbert, // m = 3
  kUnitDisk,       // radius ~ sqrt(12/(pi n)): avg degree ~ 12
};

/// All families, for sweeps.
std::vector<Family> all_families();

/// Families with O(1) description that are connected-ish and nontrivial;
/// used by the heavier property suites.
std::vector<Family> core_families();

/// Human-readable family name.
std::string family_name(Family family);

/// Instantiates a family at size ~n with the given seed. The realized
/// vertex count may differ slightly (e.g. hypercube rounds to 2^d).
/// `pool`, when non-null, shards the gnp families' CSR build over its
/// lanes (borrowed; the graph is identical for every lane count).
Graph make(Family family, VertexId n, std::uint64_t seed,
           util::ThreadPool* pool = nullptr);

}  // namespace slumber::gen
