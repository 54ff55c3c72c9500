// Determinism contract of the parallel trial runner: run_trials must
// produce bitwise-identical MisRun sequences for every thread count
// (including the fully serial 1), and aggregate_mis must reduce them to
// identical AggregateRun values. Anything less would make measurements
// depend on the machine they ran on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

namespace slumber::analysis {
namespace {

Graph sparse_gnp(VertexId n, std::uint64_t seed) {
  return gen::gnp_avg_degree_sharded_csr(n, 8.0, seed);
}

// Field-by-field bitwise equality of two runs, including the per-node
// metrics and the output vector.
void expect_runs_identical(const MisRun& a, const MisRun& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.node_avg_awake, b.node_avg_awake);
  EXPECT_EQ(a.worst_awake, b.worst_awake);
  EXPECT_EQ(a.node_avg_rounds, b.node_avg_rounds);
  EXPECT_EQ(a.worst_rounds, b.worst_rounds);
  EXPECT_EQ(a.mis_size, b.mis_size);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.outputs, b.outputs);
  ASSERT_EQ(a.metrics.node.size(), b.metrics.node.size());
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.metrics.total_messages, b.metrics.total_messages);
  EXPECT_EQ(a.metrics.total_awake_node_rounds,
            b.metrics.total_awake_node_rounds);
  for (std::size_t v = 0; v < a.metrics.node.size(); ++v) {
    EXPECT_EQ(a.metrics.node[v].awake_rounds, b.metrics.node[v].awake_rounds);
    EXPECT_EQ(a.metrics.node[v].finish_round, b.metrics.node[v].finish_round);
    EXPECT_EQ(a.metrics.node[v].decided_round,
              b.metrics.node[v].decided_round);
    EXPECT_EQ(a.metrics.node[v].messages_sent,
              b.metrics.node[v].messages_sent);
  }
}

void expect_aggregates_identical(const AggregateRun& a, const AggregateRun& b) {
  EXPECT_EQ(a.node_avg_awake_mean, b.node_avg_awake_mean);
  EXPECT_EQ(a.node_avg_awake_ci95, b.node_avg_awake_ci95);
  EXPECT_EQ(a.worst_awake_mean, b.worst_awake_mean);
  EXPECT_EQ(a.node_avg_rounds_mean, b.node_avg_rounds_mean);
  EXPECT_EQ(a.worst_rounds_mean, b.worst_rounds_mean);
  EXPECT_EQ(a.messages_mean, b.messages_mean);
  EXPECT_EQ(a.invalid_runs, b.invalid_runs);
  EXPECT_EQ(a.runs, b.runs);
}

class ParallelRunnerDeterminismTest
    : public ::testing::TestWithParam<MisEngine> {};

TEST_P(ParallelRunnerDeterminismTest, RunTrialsIdenticalAcrossThreadCounts) {
  const MisEngine engine = GetParam();
  const VertexId n = 192;
  const auto factory = [n](std::uint64_t seed) { return sparse_gnp(n, seed); };
  const std::uint64_t base_seed = 1234;
  const std::uint32_t num_seeds = 10;

  const std::vector<MisRun> serial =
      run_trials(engine, factory, base_seed, num_seeds, {.num_threads = 1});
  ASSERT_EQ(serial.size(), num_seeds);
  for (const unsigned threads : {2u, 8u}) {
    const std::vector<MisRun> parallel =
        run_trials(engine, factory, base_seed, num_seeds,
                   {.num_threads = threads});
    ASSERT_EQ(parallel.size(), num_seeds) << threads << " threads";
    for (std::uint32_t i = 0; i < num_seeds; ++i) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " trial=" << i);
      expect_runs_identical(serial[i], parallel[i]);
    }
  }
}

TEST_P(ParallelRunnerDeterminismTest, AggregateMatchesSerialAggregateMis) {
  const MisEngine engine = GetParam();
  const VertexId n = 192;
  const auto factory = [n](std::uint64_t seed) { return sparse_gnp(n, seed); };
  const std::uint64_t base_seed = 77;
  const std::uint32_t num_seeds = 10;

  const AggregateRun serial =
      aggregate_mis(engine, factory, base_seed, num_seeds, {.num_threads = 1});
  EXPECT_EQ(serial.runs, num_seeds);
  EXPECT_EQ(serial.invalid_runs, 0u);
  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_aggregates_identical(
        serial, aggregate_mis(engine, factory, base_seed, num_seeds,
                              {.num_threads = threads}));
    expect_aggregates_identical(
        serial, aggregate_runs(run_trials(engine, factory, base_seed,
                                          num_seeds,
                                          {.num_threads = threads})));
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ParallelRunnerDeterminismTest,
                         ::testing::Values(MisEngine::kSleeping,
                                           MisEngine::kFastSleeping,
                                           MisEngine::kLubyA),
                         [](const auto& param_info) {
                           return engine_name(param_info.param) == "SleepingMIS"
                                      ? std::string("Sleeping")
                                  : engine_name(param_info.param) ==
                                          "Fast-SleepingMIS"
                                      ? std::string("FastSleeping")
                                      : std::string("LubyA");
                         });

TEST(TrialSeedTest, MatchesSpecifiedSchedule) {
  // The schedule is splitmix64(base_seed + i) by specification — a pure
  // function of base_seed + i, never of execution order.
  std::uint64_t sm = 42 + 7;
  EXPECT_EQ(trial_seed(42, 7), splitmix64(sm));
  EXPECT_EQ(trial_seed(42, 0), trial_seed(42, 0));
  EXPECT_NE(trial_seed(42, 0), trial_seed(42, 1));
  // Consequence of that schedule: batches whose base seeds are closer
  // together than their trial count share trials. Callers must space
  // base seeds at least num_seeds apart (the 31 * n / 7 * n bases in the
  // benches do).
  EXPECT_EQ(trial_seed(42, 1), trial_seed(43, 0));
}

TEST(ParallelTrialsTest, OrderedResultsForAnyThreadCount) {
  const auto fn = [](std::size_t i) {
    return static_cast<std::uint64_t>(i) * 2654435761u + 17;
  };
  const std::vector<std::uint64_t> serial = parallel_trials(257, 1, fn);
  for (const unsigned threads : {2u, 3u, 8u, 32u}) {
    EXPECT_EQ(parallel_trials(257, threads, fn), serial) << threads;
  }
  EXPECT_TRUE(parallel_trials(0, 4, fn).empty());
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_index(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  // The pool is reusable for subsequent batches.
  pool.parallel_for_index(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 2) << i;
  }
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_index(
                   100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("trial 37 failed");
                   }),
               std::runtime_error);
  // Still usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for_index(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  // Must return immediately without touching the condition variables or
  // invoking fn; a missed-wakeup bug here would hang the test.
  pool.parallel_for_index(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  // The pool stays usable afterwards.
  pool.parallel_for_index(10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPoolTest, SingleItemRunsInlineOnTheCaller) {
  util::ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  int calls = 0;  // no atomic needed: the call must happen on the caller
  pool.parallel_for_index(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, caller);
  // Exceptions from the inline path propagate directly.
  EXPECT_THROW(pool.parallel_for_index(
                   1, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedCallOnSamePoolRunsSeriallyInsteadOfDeadlocking) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_hits(64);
  std::atomic<int> outer_hits{0};
  // Before the reentrancy guard this deadlocked silently: the nested
  // call waited on lanes that were all busy with the outer batch.
  pool.parallel_for_index(8, [&](std::size_t) {
    outer_hits.fetch_add(1, std::memory_order_relaxed);
    const std::thread::id me = std::this_thread::get_id();
    pool.parallel_for_index(inner_hits.size(), [&](std::size_t i) {
      // The nested batch runs inline on the nesting thread.
      EXPECT_EQ(std::this_thread::get_id(), me);
      inner_hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(outer_hits.load(), 8);
  for (std::size_t i = 0; i < inner_hits.size(); ++i) {
    EXPECT_EQ(inner_hits[i].load(), 8) << i;
  }
  // A nested call on a *different* pool still dispatches normally. One
  // outer item drives it: a pool runs one batch at a time, so only a
  // single thread may submit to `other`.
  util::ThreadPool other(2);
  std::atomic<int> cross{0};
  pool.parallel_for_index(4, [&](std::size_t item) {
    if (item == 0) {
      other.parallel_for_index(10, [&](std::size_t) {
        cross.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(cross.load(), 10);
}

TEST(ParallelForRangeTest, ChunksPartitionContiguouslyInOrder) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    util::ThreadPool pool(threads);
    for (const std::size_t total : {0u, 1u, 2u, 7u, 8u, 100u, 257u}) {
      const std::size_t chunks = pool.num_chunks(total);
      EXPECT_EQ(chunks, std::min<std::size_t>(threads, total));
      std::vector<std::pair<std::size_t, std::size_t>> bounds(chunks);
      std::vector<std::atomic<int>> covered(total);
      pool.parallel_for_range(
          total, [&](std::size_t c, std::size_t begin, std::size_t end) {
            bounds[c] = {begin, end};
            for (std::size_t i = begin; i < end; ++i) {
              covered[i].fetch_add(1, std::memory_order_relaxed);
            }
          });
      // Chunk c+1 starts where chunk c ends, chunk sizes differ by at
      // most one, and every index is covered exactly once.
      std::size_t expect_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        EXPECT_EQ(bounds[c].first, expect_begin)
            << "threads=" << threads << " total=" << total << " chunk=" << c;
        EXPECT_GE(bounds[c].second, bounds[c].first);
        const std::size_t size = bounds[c].second - bounds[c].first;
        EXPECT_GE(size, total / chunks);
        EXPECT_LE(size, total / chunks + 1);
        expect_begin = bounds[c].second;
      }
      EXPECT_EQ(expect_begin, total);
      for (std::size_t i = 0; i < total; ++i) {
        EXPECT_EQ(covered[i].load(), 1) << i;
      }
    }
  }
}

TEST(ParallelForRangeTest, PerChunkPartialsReduceDeterministically) {
  // The bulk engine's accumulator pattern: per-chunk partials merged in
  // chunk index order must equal the serial sum for any pool size.
  const std::size_t total = 1000;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < total; ++i) expected += i * i;
  for (const unsigned threads : {1u, 2u, 5u, 16u}) {
    util::ThreadPool pool(threads);
    std::vector<std::uint64_t> partial(pool.num_chunks(total), 0);
    pool.parallel_for_range(
        total, [&](std::size_t c, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) partial[c] += i * i;
        });
    std::uint64_t sum = 0;
    for (const std::uint64_t p : partial) sum += p;
    EXPECT_EQ(sum, expected) << threads << " threads";
  }
}

TEST(DefaultTrialThreadsTest, OverrideWins) {
  set_default_trial_threads(3);
  EXPECT_EQ(default_trial_threads(), 3u);
  set_default_trial_threads(0);
  EXPECT_GE(default_trial_threads(), 1u);
}

}  // namespace
}  // namespace slumber::analysis
