// Determinism and distribution tests for the sharded G(n, p) builders
// (gen::gnp_sharded_csr family, src/graph/sharded_gnp.cc).
//
// The central contract: the sharded generator's output is a pure
// function of (n, p, seed) — bitwise identical CSR (and per-block
// final RNG states, probed via ShardedGnpStats::rng_digest) for every
// lane count, with the pool-less serial path as the reference. The
// lane matrix here runs under the tsan CI job, so every cross-block
// atomic path is also a ThreadSanitizer workload.
//
// The distribution suite holds the degree distribution to the exact
// Binomial(n-1, p) law with a chi-square-style statistic, and the edge
// count to its Binomial(C(n,2), p) mean.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "bulk/sleeping_mis.h"
#include "graph/generators.h"
#include "util/alloc.h"
#include "util/stream_rng.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

// The acceptance matrix's lane counts; 1 pins the pooled-but-serial
// configuration against the pool-less path.
const unsigned kLaneCounts[] = {1, 2, 3, 8};

void ExpectSameCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "v=" << v;
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "v=" << v;
  }
}

// --- lane-count determinism matrix -----------------------------------

TEST(ShardedGen, BitwiseIdenticalAcrossLaneCounts) {
  for (const VertexId n : {97u, 5000u, 20000u}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      gen::ShardedGnpStats ref_stats;
      gen::ShardedGnpOptions ref_options;
      ref_options.stats_out = &ref_stats;
      const Graph reference =
          gen::gnp_avg_degree_sharded_csr(n, 8.0, seed, ref_options);
      for (const unsigned lanes : kLaneCounts) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " seed=" << seed << " lanes=" << lanes);
        util::ThreadPool pool(lanes);
        gen::ShardedGnpStats stats;
        gen::ShardedGnpOptions options;
        options.pool = &pool;
        options.stats_out = &stats;
        const Graph sharded =
            gen::gnp_avg_degree_sharded_csr(n, 8.0, seed, options);
        ExpectSameCsr(reference, sharded);
        // Per-block final RNG states are pure functions of (seed,
        // block); their order-free digest must match the serial path.
        EXPECT_EQ(ref_stats.rng_digest, stats.rng_digest);
        EXPECT_EQ(ref_stats.blocks, stats.blocks);
      }
    }
  }
}

TEST(ShardedGen, DenseAndEdgeCasesAcrossLaneCounts) {
  util::ThreadPool pool(4);
  gen::ShardedGnpOptions parallel;
  parallel.pool = &pool;
  // Dense p: every block emits many edges per row.
  const Graph dense_ref = gen::gnp_sharded_csr(300, 0.5, 3);
  ExpectSameCsr(dense_ref, gen::gnp_sharded_csr(300, 0.5, 3, parallel));
  // Degenerate p: empty and complete.
  EXPECT_EQ(gen::gnp_sharded_csr(50, 0.0, 1, parallel).num_edges(), 0u);
  const Graph complete = gen::gnp_sharded_csr(40, 1.0, 1, parallel);
  EXPECT_EQ(complete.num_edges(), 40u * 39 / 2);
  // Tiny n.
  EXPECT_EQ(gen::gnp_sharded_csr(0, 0.5, 1, parallel).num_vertices(), 0u);
  EXPECT_EQ(gen::gnp_sharded_csr(1, 0.5, 1, parallel).num_edges(), 0u);
  // Sparse blocks: ~40 edges over 5 blocks, so most blocks finish with
  // fewer edges than the pipeline depth and run their whole degree
  // bump, cursor claim and up-half store through the drain path.
  gen::ShardedGnpStats sparse_stats;
  const Graph sparse_ref = gen::gnp_avg_degree_sharded_csr(
      20000, 0.004, 9, {.stats_out = &sparse_stats});
  EXPECT_EQ(sparse_stats.blocks, 5u);
  EXPECT_GT(sparse_ref.num_edges(), 0u);
  EXPECT_LT(sparse_ref.num_edges(), 100u);
  for (const unsigned lanes : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << "sparse, lanes=" << lanes);
    util::ThreadPool lane_pool(lanes);
    gen::ShardedGnpStats stats;
    const Graph sparse = gen::gnp_avg_degree_sharded_csr(
        20000, 0.004, 9, {.pool = &lane_pool, .stats_out = &stats});
    ExpectSameCsr(sparse_ref, sparse);
    EXPECT_EQ(sparse_stats.rng_digest, stats.rng_digest);
  }
}

TEST(ShardedGen, FirstTouchPlacementIsBitwiseInvariant) {
  // A multi-lane pool pre-touches every CSR array in its chunk layout;
  // the pool-less build touches nothing ahead of the real writes.
  util::ThreadPool pool(4);
  gen::ShardedGnpOptions pooled;
  pooled.pool = &pool;
  const Graph a = gen::gnp_avg_degree_sharded_csr(20000, 8.0, 5);
  const Graph b = gen::gnp_avg_degree_sharded_csr(20000, 8.0, 5, pooled);
  ExpectSameCsr(a, b);
}

TEST(ShardedGen, SeedsAndParametersChangeTheGraph) {
  const Graph a = gen::gnp_avg_degree_sharded_csr(4000, 8.0, 1);
  const Graph b = gen::gnp_avg_degree_sharded_csr(4000, 8.0, 2);
  // Distinct seeds must realize distinct edge sets (overwhelmingly).
  bool differs = a.num_edges() != b.num_edges();
  for (VertexId v = 0; !differs && v < 4000; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    differs = na.size() != nb.size() ||
              !std::equal(na.begin(), na.end(), nb.begin());
  }
  EXPECT_TRUE(differs);
}

// --- the counter-based stream discipline -----------------------------

TEST(StreamRng, PureFunctionOfSeedAndCounter) {
  Rng a = util::stream_rng(99, 7);
  // Opening and consuming unrelated streams in between must not
  // perturb stream 7 (counter-based, not consumption-based).
  Rng noise = util::stream_rng(99, 3);
  for (int i = 0; i < 100; ++i) noise.next();
  Rng b = util::stream_rng(99, 7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next(), b.next()) << "draw " << i;
  }
}

TEST(StreamRng, AdjacentCountersDecorrelate) {
  Rng a = util::stream_rng(5, 0);
  Rng b = util::stream_rng(5, 1);
  Rng c = util::stream_rng(6, 0);
  int agree_ab = 0;
  int agree_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = a.next();
    if (x == b.next()) ++agree_ab;
    if (x == c.next()) ++agree_ac;
  }
  EXPECT_EQ(agree_ab, 0);
  EXPECT_EQ(agree_ac, 0);
}

// --- distribution against the exact G(n, p) law ---------------------

// Chi-square-style statistic of an empirical degree histogram against
// the exact Binomial(n-1, p) law, pooling bins with expected count
// below 5 into the tails.
double DegreeChiSquare(const Graph& g, double p) {
  const auto n = g.num_vertices();
  std::vector<std::uint64_t> histogram(g.max_degree() + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++histogram[g.degree(v)];
  // Binomial pmf via the ratio recurrence, scaled to n vertices.
  const double trials = static_cast<double>(n - 1);
  std::vector<double> expected;
  double pmf = std::pow(1.0 - p, trials);
  for (std::uint32_t k = 0; k <= 4 * 8 + 40; ++k) {
    expected.push_back(pmf * static_cast<double>(n));
    pmf *= ((trials - k) / (k + 1.0)) * (p / (1.0 - p));
  }
  double statistic = 0.0;
  double pooled_obs = 0.0;
  double pooled_exp = 0.0;
  const std::size_t bins = std::max(histogram.size(), expected.size());
  for (std::size_t k = 0; k < bins; ++k) {
    const double obs =
        k < histogram.size() ? static_cast<double>(histogram[k]) : 0.0;
    const double exp = k < expected.size() ? expected[k] : 0.0;
    if (exp < 5.0) {
      pooled_obs += obs;
      pooled_exp += exp;
      continue;
    }
    statistic += (obs - exp) * (obs - exp) / exp;
  }
  if (pooled_exp > 0.0) {
    statistic +=
        (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) / pooled_exp;
  }
  return statistic;
}

TEST(ShardedGen, DegreeDistributionMatchesBinomial) {
  constexpr VertexId kN = 20000;
  const double p = gen::gnp_probability_for_avg_degree(kN, 8.0);
  // ~30 effective bins; chi-square critical value at p=0.001 is ~60.
  // Fixed seeds make the statistics deterministic; 80 gives slack for
  // an unlucky (but committed) draw while still catching a broken
  // schedule, whose statistic explodes by orders of magnitude.
  constexpr double kThreshold = 80.0;
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull, 16ull}) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(kN, 8.0, seed);
    EXPECT_LT(DegreeChiSquare(g, p), kThreshold) << "seed=" << seed;
    // Edge totals are Binomial(C(n,2), p): mean 80k, sigma ~283. Each
    // graph must land within 5 sigma.
    const double mean =
        p * 0.5 * static_cast<double>(kN) * static_cast<double>(kN - 1);
    const double sigma = std::sqrt(mean * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(g.num_edges()), mean, 5 * sigma)
        << "seed=" << seed;
  }
}

// --- make() plumbing --------------------------------------------------

TEST(ShardedGen, MakeRoutesGnpFamiliesThroughShardedSchedule) {
  const Graph sparse = gen::gnp_avg_degree_sharded_csr(3000, 8.0, 17);
  const Graph dense = gen::gnp_sharded_csr(600, 0.5, 17);
  EXPECT_TRUE(gen::make(gen::Family::kGnpSparse, 3000, 17).same_csr(sparse));
  EXPECT_TRUE(gen::make(gen::Family::kGnpDense, 600, 17).same_csr(dense));
  for (const unsigned lanes : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    util::ThreadPool pool(lanes);
    EXPECT_TRUE(
        gen::make(gen::Family::kGnpSparse, 3000, 17, &pool).same_csr(sparse));
    EXPECT_TRUE(
        gen::make(gen::Family::kGnpDense, 600, 17, &pool).same_csr(dense));
    // A pool changes nothing for the other families either.
    EXPECT_TRUE(gen::make(gen::Family::kCycle, 100, 1, &pool)
                    .same_csr(gen::make(gen::Family::kCycle, 100, 1)));
  }
}

// --- gnp helpers -----------------------------------------------------

TEST(GnpHelpers, ProbabilityForAvgDegree) {
  EXPECT_DOUBLE_EQ(gen::gnp_probability_for_avg_degree(101, 8.0), 0.08);
  EXPECT_DOUBLE_EQ(gen::gnp_probability_for_avg_degree(2, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(gen::gnp_probability_for_avg_degree(11, 0.0), 0.0);
}

// --- first-touch in the bulk engine ----------------------------------

TEST(ShardedGen, BulkFirstTouchIsBitwiseInvariant) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(8000, 8.0, 23);
  bulk::BulkOptions base;
  base.max_message_bits = sim::congest_bits_for(g.num_vertices());
  const bulk::BulkResult reference =
      bulk::bulk_sleeping_mis(g, 23, {}, nullptr, base);
  EXPECT_TRUE(analysis::check_mis(g, reference.outputs).ok());
  util::ThreadPool pool(4);
  bulk::BulkOptions touched = base;
  touched.pool = &pool;
  touched.parallel_cutoff = 1;
  const bulk::BulkResult run =
      bulk::bulk_sleeping_mis(g, 23, {}, nullptr, touched);
  EXPECT_EQ(reference.outputs, run.outputs);
  EXPECT_TRUE(run.virtual_makespan == reference.virtual_makespan);
  EXPECT_EQ(reference.metrics.total_awake_node_rounds,
            run.metrics.total_awake_node_rounds);
  EXPECT_EQ(reference.metrics.total_messages, run.metrics.total_messages);
}

// --- util::sharded_fill ----------------------------------------------

TEST(ShardedFill, ContentsIdenticalWithAndWithoutPool) {
  util::ThreadPool pool(3);
  const auto serial = util::sharded_fill<std::uint32_t>(10001, 7, nullptr);
  const auto parallel = util::sharded_fill<std::uint32_t>(10001, 7, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(std::equal(serial.begin(), serial.end(), parallel.begin()));
  EXPECT_TRUE(util::sharded_fill<int>(0, 1, &pool).empty());
}

}  // namespace
}  // namespace slumber
