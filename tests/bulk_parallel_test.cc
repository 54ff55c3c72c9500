// Bitwise-equivalence matrix for the intra-trial parallel bulk path:
// sharding the per-frame node scans over a thread pool must reproduce
// the serial bulk engine — and therefore the coroutine engine — exactly
// (outputs, per-node + aggregate sim::Metrics, recursion traces) for
// every thread count. The suites run with parallel_cutoff = 1 so even
// tiny recursion frames dispatch through the pool, exercising the
// chunked accounting merge on every scan. These tests are also the
// ThreadSanitizer workload for the parallel bulk path (the tsan CI
// job).
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/verify.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "bulk/sleeping_mis.h"
#include "core/sleeping_mis.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "metrics_test_util.h"
#include "sim/network.h"
#include "util/alloc.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

using analysis::ExecEngine;
using analysis::MisEngine;

// The acceptance matrix's lane counts; 1 pins the pooled-but-serial
// configuration against the pool-less path.
const unsigned kLaneCounts[] = {1, 2, 3, 8};

bulk::BulkOptions parallel_options(const Graph& g, util::ThreadPool* pool) {
  bulk::BulkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  options.pool = pool;
  options.parallel_cutoff = 1;  // shard even one-node frames
  return options;
}

bulk::BulkResult run_bulk_mis(MisEngine engine, const Graph& g,
                              std::uint64_t seed, util::ThreadPool* pool,
                              core::RecursionTrace* trace = nullptr) {
  auto protocol = bulk::bulk_mis_protocol(engine, trace);
  EXPECT_NE(protocol, nullptr);
  return bulk::run_bulk(g, seed, *protocol, parallel_options(g, pool));
}

// --- the acceptance matrix: thread counts x generators x seeds -------

class BulkParallelCrossValidation
    : public ::testing::TestWithParam<gen::Family> {};

TEST_P(BulkParallelCrossValidation, SleepingMisTenSeedsAllLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = gen::make(GetParam(), 600, seed);
    const auto coro = analysis::run_mis(MisEngine::kSleeping, g, seed);
    const auto serial = run_bulk_mis(MisEngine::kSleeping, g, seed, nullptr);
    EXPECT_EQ(coro.outputs, serial.outputs) << "seed=" << seed;
    ExpectMetricsEqual(coro.metrics, serial.metrics);
    for (const unsigned lanes : kLaneCounts) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " lanes=" << lanes);
      util::ThreadPool pool(lanes);
      const auto sharded =
          run_bulk_mis(MisEngine::kSleeping, g, seed, &pool);
      EXPECT_EQ(serial.outputs, sharded.outputs);
      EXPECT_TRUE(sharded.virtual_makespan == serial.virtual_makespan);
      ExpectMetricsEqual(serial.metrics, sharded.metrics);
    }
  }
}

TEST_P(BulkParallelCrossValidation, BaselinesAgreeAcrossLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::make(GetParam(), 256, seed);
    for (const MisEngine engine :
         {MisEngine::kLubyA, MisEngine::kLubyB, MisEngine::kGreedy}) {
      SCOPED_TRACE("engine=" + analysis::engine_name(engine) +
                   " seed=" + std::to_string(seed));
      const auto coro = analysis::run_mis(engine, g, seed);
      for (const unsigned lanes : {2u, 8u}) {
        util::ThreadPool pool(lanes);
        const auto sharded = run_bulk_mis(engine, g, seed, &pool);
        EXPECT_EQ(coro.outputs, sharded.outputs) << lanes << " lanes";
        ExpectMetricsEqual(coro.metrics, sharded.metrics);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, BulkParallelCrossValidation,
                         ::testing::Values(gen::Family::kGnpSparse,
                                           gen::Family::kRandomTree,
                                           gen::Family::kUnitDisk,
                                           gen::Family::kStar),
                         [](const auto& param_info) {
                           return gen::family_name(param_info.param);
                         });

// --- recursion traces shard-invariantly ------------------------------

TEST(BulkParallelTrace, RecursionTraceMatchesAtEveryLaneCount) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 8.0, 7);
  core::RecursionTrace serial_trace;
  const auto serial =
      run_bulk_mis(MisEngine::kSleeping, g, 7, nullptr, &serial_trace);
  for (const unsigned lanes : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    util::ThreadPool pool(lanes);
    core::RecursionTrace trace;
    const auto sharded =
        run_bulk_mis(MisEngine::kSleeping, g, 7, &pool, &trace);
    EXPECT_EQ(serial.outputs, sharded.outputs);
    EXPECT_EQ(serial_trace.levels, trace.levels);
    EXPECT_EQ(serial_trace.bits, trace.bits);
    ASSERT_EQ(serial_trace.calls.size(), trace.calls.size());
    for (const auto& [key, stats] : serial_trace.calls) {
      const auto it = trace.calls.find(key);
      ASSERT_NE(it, trace.calls.end())
          << "call (k=" << key.first << ", path=" << key.second
          << ") missing at " << lanes << " lanes";
      EXPECT_EQ(stats.participants, it->second.participants);
      EXPECT_EQ(stats.left, it->second.left);
      EXPECT_EQ(stats.right, it->second.right);
      EXPECT_EQ(stats.isolated_joins, it->second.isolated_joins);
      EXPECT_EQ(stats.first_round, it->second.first_round);
    }
    EXPECT_EQ(serial_trace.z_by_level(), trace.z_by_level());
  }
}

// --- coin words past the first 64 levels -----------------------------

TEST(BulkParallelTrace, DeepCoinWordsMatchPerNodeStreams) {
  // K >= 64 puts X_64.. in a node's second coin word (and third, at
  // K = 126). The recursion trace unpacks the words the bulk run drew;
  // each must equal the node's own per-level draws from
  // Rng(seed).split(v). 1001 nodes leave a sub-8 tail in every chunk.
  const std::uint64_t seed = 11;
  const Graph g = gen::gnp_avg_degree_sharded_csr(1001, 8.0, seed);
  for (const std::uint32_t levels : {64u, 69u, 126u}) {
    core::SleepingMisOptions options;
    options.levels = levels;
    std::vector<std::vector<std::uint8_t>> expected(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      Rng rng = Rng(seed).split(v);
      expected[v].assign(levels + 1, 0);
      for (std::uint32_t i = 1; i <= levels; ++i) {
        expected[v][i] = rng.bernoulli(options.coin_bias) ? 1 : 0;
      }
    }
    for (const unsigned lanes : {1u, 3u}) {
      SCOPED_TRACE(testing::Message() << "K=" << levels << " lanes=" << lanes);
      util::ThreadPool pool(lanes);
      core::RecursionTrace trace;
      const auto run = bulk::bulk_sleeping_mis(g, seed, options, &trace,
                                               parallel_options(g, &pool));
      EXPECT_EQ(trace.levels, levels);
      EXPECT_EQ(trace.bits, expected);
      EXPECT_TRUE(analysis::check_mis(g, run.outputs).ok());
    }
  }
}

// --- protocols outside the MisEngine enum ----------------------------

TEST(BulkParallelBaselines, IsraeliItaiAgreesAcrossLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(200, 5.0, seed);
    bulk::BulkIsraeliItai serial_protocol;
    const auto serial =
        bulk::run_bulk(g, seed, serial_protocol, parallel_options(g, nullptr));
    for (const unsigned lanes : {2u, 8u}) {
      util::ThreadPool pool(lanes);
      bulk::BulkIsraeliItai protocol;
      const auto sharded =
          bulk::run_bulk(g, seed, protocol, parallel_options(g, &pool));
      EXPECT_EQ(serial.outputs, sharded.outputs)
          << "seed=" << seed << " lanes=" << lanes;
      ExpectMetricsEqual(serial.metrics, sharded.metrics);
    }
  }
}

TEST(BulkParallelBaselines, BeepingMisAgreesAcrossLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(120, 4.0, seed);
    bulk::BulkOptions base;
    base.max_message_bits = 1;
    base.parallel_cutoff = 1;
    bulk::BulkBeepingMis serial_protocol;
    const auto serial = bulk::run_bulk(g, seed, serial_protocol, base);
    for (const unsigned lanes : {2u, 8u}) {
      util::ThreadPool pool(lanes);
      bulk::BulkOptions options = base;
      options.pool = &pool;
      bulk::BulkBeepingMis protocol;
      const auto sharded = bulk::run_bulk(g, seed, protocol, options);
      EXPECT_EQ(serial.outputs, sharded.outputs)
          << "seed=" << seed << " lanes=" << lanes;
      ExpectMetricsEqual(serial.metrics, sharded.metrics);
    }
  }
}

// --- the awake set against a reference -------------------------------

// k distinct ids of [0, n), ascending (selection sampling).
std::vector<VertexId> ascending_subset(VertexId n, std::size_t k, Rng& rng) {
  std::vector<VertexId> out;
  out.reserve(k);
  for (VertexId v = 0; v < n && out.size() < k; ++v) {
    if (rng.below(n - v) < k - out.size()) out.push_back(v);
  }
  return out;
}

// Drives mark_awake with a seeded sequence of sets and compares
// is_awake on all of [0, n) with a std::vector<bool> after every mark.
// The sequence covers the shapes protocols hand the engine (ascending
// frame member lists, apply_dynamics' survivors followed by
// out-of-order re-entrants) plus runs packed into one word that a
// chunk boundary splits, and sizes on both sides of the ceil(n/64)
// threshold that picks the clear rule, in all four transition orders.
TEST(BulkParallel, AwakeSetMatchesReference) {
  for (const VertexId n : {1u, 63u, 64u, 65u, 4097u, 20000u}) {
    const Graph g(n, {});
    const std::size_t words = (std::size_t{n} + 63) / 64;
    for (const unsigned lanes : kLaneCounts) {
      util::ThreadPool pool(lanes);
      for (const std::size_t cutoff :
           {std::size_t{1}, bulk::BulkOptions{}.parallel_cutoff}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " lanes=" << lanes
                                        << " cutoff=" << cutoff);
        bulk::BulkOptions options;
        options.pool = &pool;
        options.parallel_cutoff = cutoff;
        bulk::BulkEngine eng(g, 1, options);
        Rng rng(std::uint64_t{n} * 1000 + lanes * 10 + (cutoff == 1 ? 1 : 2));
        const auto mark = [&](const std::vector<VertexId>& set,
                              const char* shape) {
          eng.mark_awake(set);
          std::vector<bool> ref(n, false);
          for (const VertexId v : set) ref[v] = true;
          for (VertexId v = 0; v < n; ++v) {
            if (eng.is_awake(v) != ref[v]) {
              ADD_FAILURE() << shape << " (|set| = " << set.size()
                            << "): is_awake(" << v << ") = "
                            << eng.is_awake(v);
              return;
            }
          }
        };
        // A dense run of consecutive ids: its members share words, and
        // with any chunking the chunk boundaries fall inside them.
        const auto dense_run = [&](bool shuffled) {
          const VertexId start = static_cast<VertexId>(rng.below(n));
          const VertexId len = static_cast<VertexId>(
              1 + rng.below(std::min<std::uint64_t>(n - start, 200)));
          std::vector<VertexId> run(len);
          for (VertexId i = 0; i < len; ++i) run[i] = start + i;
          if (shuffled) rng.shuffle(run);
          return run;
        };
        std::vector<VertexId> all(n);
        for (VertexId v = 0; v < n; ++v) all[v] = v;
        const std::size_t small = words;
        const std::size_t large = std::min<std::size_t>(n, words + 1);
        for (int rep = 0; rep < 3; ++rep) {
          mark({}, "empty");
          mark(all, "all nodes");
          mark({}, "empty after all");
          mark(ascending_subset(n, rng.below(n + 1), rng), "ascending");
          std::vector<VertexId> survivors =
              ascending_subset(n, rng.below(n + 1), rng);
          std::vector<bool> taken(n, false);
          for (const VertexId v : survivors) taken[v] = true;
          std::vector<VertexId> reentrants;
          for (VertexId v = 0; v < n; ++v) {
            if (!taken[v] && rng.below(4) == 0) reentrants.push_back(v);
          }
          rng.shuffle(reentrants);
          survivors.insert(survivors.end(), reentrants.begin(),
                           reentrants.end());
          mark(survivors, "ascending + out-of-order re-entrants");
          mark(dense_run(false), "dense run");
          mark(dense_run(true), "shuffled dense run");
          // The clear threshold: small sets are cleared bit by bit from
          // the engine's copy, large ones by a fill.
          mark(ascending_subset(n, small, rng), "small");
          mark(ascending_subset(n, small, rng), "small -> small");
          mark(ascending_subset(n, large, rng), "small -> large");
          mark(ascending_subset(n, large, rng), "large -> large");
          mark(ascending_subset(n, small, rng), "large -> small");
          std::vector<VertexId> shuffled = ascending_subset(n, large, rng);
          rng.shuffle(shuffled);
          mark(shuffled, "shuffled large");
        }
      }
    }
  }
}

// --- run_mis wiring with the default cutoff --------------------------

TEST(BulkParallelRunMis, PoolParameterIsBitwiseInvariant) {
  // n = 10,000 exceeds the default parallel_cutoff, so the big frames
  // genuinely shard while the deep tiny frames take the serial path —
  // both paths must agree with the pool-less run.
  const Graph g = gen::gnp_avg_degree_sharded_csr(10000, 8.0, 5);
  const auto serial = analysis::run_mis(MisEngine::kSleeping, g, 5,
                                        {.exec = ExecEngine::kBulk});
  util::ThreadPool pool(4);
  const auto sharded = analysis::run_mis(
      MisEngine::kSleeping, g, 5, {.exec = ExecEngine::kBulk, .pool = &pool});
  EXPECT_EQ(serial.outputs, sharded.outputs);
  EXPECT_EQ(serial.valid, sharded.valid);
  EXPECT_EQ(serial.mis_size, sharded.mis_size);
  ExpectMetricsEqual(serial.metrics, sharded.metrics);
}

// --- memory diet: dropped per-node metrics ---------------------------

TEST(BulkMemoryDiet, NodeMetricsOffKeepsOutputsAndAggregates) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(2000, 8.0, 11);
  const auto full = run_bulk_mis(MisEngine::kSleeping, g, 11, nullptr);
  for (const unsigned lanes : {1u, 4u}) {
    util::ThreadPool pool(lanes);
    bulk::BulkOptions options = parallel_options(g, &pool);
    options.node_metrics = false;
    const auto diet = bulk::bulk_sleeping_mis(g, 11, {}, nullptr, options);
    EXPECT_TRUE(diet.metrics.node.empty()) << lanes << " lanes";
    EXPECT_EQ(full.outputs, diet.outputs);
    EXPECT_TRUE(diet.virtual_makespan == full.virtual_makespan);
    EXPECT_EQ(full.metrics.total_awake_node_rounds,
              diet.metrics.total_awake_node_rounds);
    EXPECT_EQ(full.metrics.distinct_active_rounds,
              diet.metrics.distinct_active_rounds);
    EXPECT_EQ(full.metrics.total_messages, diet.metrics.total_messages);
    EXPECT_EQ(full.metrics.dropped_messages, diet.metrics.dropped_messages);
    EXPECT_EQ(full.metrics.max_message_bits_seen,
              diet.metrics.max_message_bits_seen);
    // makespan falls back to the saturated virtual makespan, which for
    // Algorithm 1 equals every node's finish round.
    EXPECT_EQ(full.metrics.makespan, diet.metrics.makespan);
    EXPECT_TRUE(analysis::check_mis(g, diet.outputs).ok());
  }
}

TEST(BulkMemoryDiet, RunMisMeasuresWithoutNodeMetrics) {
  // Without per-node metrics run_mis takes node_avg_awake from the
  // awake total and worst_rounds from the makespan; both must equal
  // what the per-node run reports, clean and with nodes crashed.
  const Graph g = gen::gnp_avg_degree_sharded_csr(20000, 8.0, 3);
  fault::FaultPlan crash = fault::standard_scenarios()[3].plan;
  crash.crash_prob = 1e-3;
  const fault::FaultPlan* const plans[] = {nullptr, &crash};
  for (const fault::FaultPlan* plan : plans) {
    for (const MisEngine engine : {MisEngine::kSleeping, MisEngine::kLubyA,
                                   MisEngine::kLubyB, MisEngine::kGreedy}) {
      SCOPED_TRACE(testing::Message() << analysis::engine_name(engine)
                                      << (plan == nullptr ? "" : ", crash"));
      analysis::RunOptions opts = {.exec = ExecEngine::kBulk, .fault = plan};
      const analysis::MisRun a = analysis::run_mis(engine, g, 5, opts);
      opts.node_metrics = false;
      const analysis::MisRun b = analysis::run_mis(engine, g, 5, opts);
      ASSERT_TRUE(b.metrics.node.empty());
      EXPECT_GT(b.node_avg_awake, 0.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.node_avg_awake),
                std::bit_cast<std::uint64_t>(b.node_avg_awake));
      EXPECT_EQ(a.worst_rounds, b.worst_rounds);
      if (plan != nullptr) {
        EXPECT_GT(b.metrics.crashed_nodes, 3u);
      }
    }
  }
}

// --- from_csr construction ------------------------------------------

/// A copy of a graph's CSR arrays, for from_csr to rebuild or reject.
struct Csr {
  VertexId n = 0;
  util::PodVector<CsrOffset> offsets;
  util::PodVector<VertexId> adjacency;
};

Csr copy_csr(const Graph& g) {
  Csr csr;
  csr.n = g.num_vertices();
  csr.offsets.push_back(0);
  for (VertexId v = 0; v < csr.n; ++v) {
    const auto nbrs = g.neighbors(v);
    csr.adjacency.insert(csr.adjacency.end(), nbrs.begin(), nbrs.end());
    csr.offsets.push_back(csr.adjacency.size());
  }
  return csr;
}

Graph from_copy(Csr csr, util::ThreadPool* pool) {
  return Graph::from_csr(csr.n, std::move(csr.offsets),
                         std::move(csr.adjacency), pool);
}

TEST(BulkMemoryDiet, CsrGraphRunsIdenticallyToEdgeListGraph) {
  // Built from an edge list, so the twin below is the only from_csr one.
  const Graph a(1500, gen::gnp_avg_degree_sharded_csr(1500, 8.0, 3).edges());
  // The from_csr twin: a's own arrays.
  const Graph b = from_copy(copy_csr(a), nullptr);
  ASSERT_TRUE(b.same_csr(a));
  const auto run_a = run_bulk_mis(MisEngine::kSleeping, a, 3, nullptr);
  const auto run_b = run_bulk_mis(MisEngine::kSleeping, b, 3, nullptr);
  EXPECT_EQ(run_a.outputs, run_b.outputs);
  ExpectMetricsEqual(run_a.metrics, run_b.metrics);
  EXPECT_TRUE(analysis::check_mis(b, run_b.outputs).ok());
}

TEST(BulkMemoryDiet, FromCsrValidatesShape) {
  // Malformed: offsets not covering adjacency.
  EXPECT_THROW(Graph::from_csr(2, {0, 1, 1}, {1, 0}), std::invalid_argument);
  // Self-loop.
  EXPECT_THROW(Graph::from_csr(2, {0, 1, 2}, {0, 0}), std::invalid_argument);
  // Asymmetric adjacency (1 lists 0, 0 does not list 1).
  EXPECT_THROW(Graph::from_csr(3, {0, 1, 2, 2}, {2, 0}),
               std::invalid_argument);
  // Unsorted range.
  EXPECT_THROW(Graph::from_csr(3, {0, 2, 3, 4}, {2, 1, 0, 0}),
               std::invalid_argument);
  // A valid path graph round-trips.
  const Graph p = Graph::from_csr(3, {0, 1, 3, 4}, {1, 0, 2, 1});
  EXPECT_EQ(p.num_edges(), 2u);
  EXPECT_EQ(p.degree(1), 2u);
  // Offsets that go down and back up: the ends match the 2-entry
  // adjacency, but range 0 claims 4 entries. Rejected before any range
  // is read (an ASan build catches an overread here).
  util::ThreadPool pool(4);
  for (util::ThreadPool* lanes :
       {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    EXPECT_THROW(Graph::from_csr(3, {0, 4, 4, 2}, {1, 2}, lanes),
                 std::invalid_argument);
  }
}

// --- from_csr: the pipelined mirror check ---------------------------

/// A mirror probe of Graph::from_csr: the entry u > v of v's range,
/// confirmed by finding v in u's range.
struct MirrorProbe {
  VertexId v;
  VertexId u;
};

/// The probes the check issues for vertices [begin, end), in order.
std::vector<MirrorProbe> probes_of(const Graph& g, VertexId begin,
                                   VertexId end) {
  std::vector<MirrorProbe> probes;
  for (VertexId v = begin; v < end; ++v) {
    for (const VertexId u : g.neighbors(v)) {
      if (u > v) probes.push_back({v, u});
    }
  }
  return probes;
}

/// Makes `probe` fail: replaces v in u's range with an unused value
/// below u that keeps the range strictly ascending, so every range
/// stays well formed on its own. False when v has no free neighbor
/// value.
bool break_probe(Csr& csr, MirrorProbe probe) {
  VertexId* first = csr.adjacency.data() + csr.offsets[probe.u];
  VertexId* last = csr.adjacency.data() + csr.offsets[probe.u + 1];
  VertexId* it = std::lower_bound(first, last, probe.v);
  if (it == last || *it != probe.v) return false;
  if (probe.v + 1 < probe.u && (it + 1 == last || probe.v + 1 < it[1])) {
    *it = probe.v + 1;
    return true;
  }
  if (probe.v > 0 && (it == first || probe.v - 1 > it[-1])) {
    *it = probe.v - 1;
    return true;
  }
  return false;
}

TEST(BulkMemoryDiet, FromCsrRejectsEveryBrokenMirrorProbe) {
  // More probes than the check's two pipeline stages hold in flight
  // (8 + 8) when a block ends, so every drained probe gets broken.
  constexpr std::size_t kTail = 24;
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("sharded G(20000, 8/n)",
                      gen::gnp_avg_degree_sharded_csr(20000, 8.0, 4));
  // A star whose hub is the highest vertex: each leaf's probe searches
  // the hub's 5000-entry range. Leaves are even, so odd values are free.
  {
    constexpr VertexId kLeaves = 5000;
    std::vector<Edge> spokes;
    for (VertexId k = 0; k < kLeaves; ++k) {
      spokes.push_back({2 * k, 2 * kLeaves});
    }
    graphs.emplace_back("star", Graph(2 * kLeaves + 1, std::move(spokes)));
  }
  // Fewer probes than the pipeline depth: all of them are drained.
  graphs.emplace_back("path", Graph(8, {{0, 2}, {2, 4}, {4, 6}}));
  for (const auto& [name, g] : graphs) {
    const Csr original = copy_csr(g);
    // The check's blocks: the same vertex ranges at every lane count.
    const VertexId n = g.num_vertices();
    std::vector<std::vector<MirrorProbe>> blocks;
    for (VertexId begin = 0; begin < n; begin += Graph::kCsrCheckBlock) {
      blocks.push_back(probes_of(
          g, begin, std::min<VertexId>(n, begin + Graph::kCsrCheckBlock)));
    }
    for (const unsigned lanes : kLaneCounts) {
      SCOPED_TRACE(testing::Message() << name << ", lanes=" << lanes);
      util::ThreadPool pool(lanes);
      const Graph accepted = from_copy(original, &pool);
      EXPECT_TRUE(accepted.same_csr(g));
      EXPECT_EQ(accepted.max_degree(), g.max_degree());
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto& probes = blocks[b];
        if (probes.empty()) continue;
        std::vector<std::size_t> broken = {0};
        for (std::size_t i = probes.size() > kTail ? probes.size() - kTail : 1;
             i < probes.size(); ++i) {
          broken.push_back(i);
        }
        for (const std::size_t i : broken) {
          Csr csr = original;
          ASSERT_TRUE(break_probe(csr, probes[i]))
              << "block " << b << ", probe " << i;
          EXPECT_THROW(from_copy(std::move(csr), &pool), std::invalid_argument)
              << "block " << b << ", probe " << i << " of " << probes.size();
        }
      }
    }
  }
}

// --- large n: sharded G(n, 8/n) at several lanes vs serial -----------
//
// Sharded builds and bulk SleepingMIS runs at sizes the unit matrices
// above never reach, each against its serial twin bit for bit, on the
// instance seed trial_seed(19 n, 0). The names carry no "Parallel", so
// the TSan job's filter leaves these out; BulkParallel* puts every
// sharded path under TSan at n <= 20,000.

struct LargeNRun {
  std::uint64_t seed = 0;
  Graph g;
  bulk::BulkResult run;
};

/// Builds G(n, 8/n) with the sharded schedule at `lanes` lanes, runs
/// bulk SleepingMIS on it with per-node metrics at `lanes` lanes, and
/// checks both against their serial twins and the MIS against the
/// verifier.
LargeNRun ExpectLargeNMatchesSerial(VertexId n, unsigned lanes) {
  util::ThreadPool pool(lanes);
  LargeNRun r;
  r.seed = analysis::trial_seed(std::uint64_t{19} * n, 0);
  r.g = gen::gnp_avg_degree_sharded_csr(n, 8.0, r.seed, {.pool = &pool});
  EXPECT_TRUE(r.g.same_csr(gen::gnp_avg_degree_sharded_csr(n, 8.0, r.seed)));
  bulk::BulkOptions options;
  options.max_message_bits = sim::congest_bits_for(n);
  options.pool = &pool;
  r.run = bulk::bulk_sleeping_mis(r.g, r.seed, {}, nullptr, options);
  options.pool = nullptr;
  const bulk::BulkResult serial =
      bulk::bulk_sleeping_mis(r.g, r.seed, {}, nullptr, options);
  EXPECT_EQ(serial.outputs, r.run.outputs);
  ExpectMetricsEqual(serial.metrics, r.run.metrics);
  EXPECT_TRUE(serial.virtual_makespan == r.run.virtual_makespan);
  EXPECT_TRUE(analysis::check_mis(r.g, r.run.outputs, &pool).ok());
  return r;
}

TEST(BulkLargeN, MillionNodesTwoLanesMatchSerial) {
  ExpectLargeNMatchesSerial(1'000'000, 2);
}

TEST(BulkLargeN, SmokeSizeThreeLanesMatchSerialAndCoroutine) {
  const LargeNRun r = ExpectLargeNMatchesSerial(65536, 3);
  const auto coro = analysis::run_mis(MisEngine::kSleeping, r.g, r.seed);
  EXPECT_EQ(coro.outputs, r.run.outputs);
  EXPECT_EQ(coro.metrics.total_awake_node_rounds,
            r.run.metrics.total_awake_node_rounds);
  EXPECT_EQ(coro.metrics.makespan, r.run.metrics.makespan);
  EXPECT_EQ(coro.metrics.total_messages, r.run.metrics.total_messages);
}

}  // namespace
}  // namespace slumber
