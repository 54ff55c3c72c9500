// A small fixed-size fork-join thread pool for embarrassingly parallel
// trial batches and intra-trial range sharding.
//
// The pool is deliberately work-stealing-free: one shared atomic cursor
// hands out item indices, the calling thread participates, and
// parallel_for_index() blocks until every item is done. Callers must
// make the work for item i depend only on i (never on claim order or
// thread identity); under that contract results are deterministic for
// any pool size, including 1.
//
// parallel_for_range() layers contiguous range sharding on top: [0,
// total) is split into at most num_threads() balanced chunks whose
// boundaries depend only on (total, num_threads()), so per-chunk
// partial accumulators can be reduced in chunk index order for bitwise
// reproducible results at every thread count (the bulk execution
// engine's awake-set scans are built on this).
//
// Reentrancy: a nested parallel_for_index / parallel_for_range on the
// pool a thread is already draining would deadlock (the outer batch
// holds every lane), so nested calls are detected via a thread-local
// marker and run serially inline on the calling thread — which is
// deterministic and correct by the item-index contract.
//
// for_each_index / for_each_chunk / chunk_count below are the one place
// that decides whether a pass shards: they take a nullable pool, shard
// over it when it has more than one lane, and otherwise run the same
// body on the caller.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slumber::util {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total lanes of execution (the
  /// calling thread counts as one, so `num_threads - 1` workers are
  /// spawned). 0 means hardware_threads(); 1 means fully serial.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes of execution, including the caller. Always >= 1.
  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(i) once for every i in [0, num_items), sharded across the
  /// pool; the calling thread participates. Blocks until all items are
  /// done, then rethrows the first exception thrown by fn (remaining
  /// unclaimed items are abandoned). An empty batch returns immediately
  /// and a 1-item batch runs inline on the caller — neither touches the
  /// condition variables. A nested call from inside fn on the same pool
  /// runs serially inline instead of deadlocking.
  void parallel_for_index(std::size_t num_items,
                          const std::function<void(std::size_t)>& fn);

  /// Number of contiguous chunks parallel_for_range splits `total`
  /// items into: min(num_threads(), total). Depends only on the pool
  /// size and `total`, so callers can pre-size per-chunk accumulator
  /// arrays before dispatch.
  std::size_t num_chunks(std::size_t total) const {
    const std::size_t lanes = num_threads();
    return total < lanes ? total : lanes;
  }

  /// Runs fn(chunk, begin, end) for every chunk c in [0,
  /// num_chunks(total)), where [begin, end) are contiguous, disjoint,
  /// cover [0, total), appear in index order (chunk c+1 starts where
  /// chunk c ends), and differ in size by at most one item. Chunks run
  /// in parallel (the caller participates); boundaries are a pure
  /// function of (total, num_threads()). For order-sensitive
  /// reductions, accumulate per-chunk partials and merge them in chunk
  /// index order after this returns.
  void parallel_for_range(
      std::size_t total,
      const std::function<void(std::size_t chunk, std::size_t begin,
                               std::size_t end)>& fn);

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static unsigned hardware_threads();

 private:
  void worker_loop();
  // Claims and runs items until the batch is exhausted or poisoned.
  // Marks this thread as draining `this` for the duration (reentrancy
  // detection).
  void drain_batch(const std::function<void(std::size_t)>& fn);

  std::mutex mutex_;
  std::condition_variable work_cv_;   // signals a new batch (generation_)
  std::condition_variable done_cv_;   // signals workers_active_ == 0
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t num_items_ = 0;
  std::atomic<std::size_t> next_{0};  // item claim cursor
  std::size_t workers_active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, n): over `pool` when it has more than
/// one lane (dynamic claim order, so fn's writes must not depend on
/// it), in index order on the caller otherwise.
template <typename Fn>
void for_each_index(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_for_index(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// The number of chunks for_each_chunk splits `total` items into: the
/// pool's num_chunks(total), or one chunk (none for an empty range)
/// without a pool. Callers size per-chunk partial arrays with it.
inline std::size_t chunk_count(const ThreadPool* pool, std::size_t total) {
  return pool != nullptr ? pool->num_chunks(total)
                         : std::min<std::size_t>(total, 1);
}

/// Runs fn(chunk, begin, end) over chunk_count(pool, total) contiguous
/// chunks of [0, total), with ThreadPool::parallel_for_range's
/// boundaries: in parallel when there are several, as the single chunk
/// [0, total) on the caller otherwise.
template <typename Fn>
void for_each_chunk(ThreadPool* pool, std::size_t total, Fn&& fn) {
  if (chunk_count(pool, total) > 1) {
    pool->parallel_for_range(total, fn);
  } else if (total > 0) {
    fn(std::size_t{0}, std::size_t{0}, total);
  }
}

}  // namespace slumber::util
