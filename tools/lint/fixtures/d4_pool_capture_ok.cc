// Must-pass fixture for slumber-d5: the repo's sanctioned sharding
// disciplines -- chunk-indexed partials merged after the barrier,
// locals inside the lambda, and atomic integer accounting.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

struct Pool {
  template <typename Fn>
  void parallel_for_range(std::size_t total, const Fn& fn) {
    fn(0, 0, total);
  }
  template <typename Fn>
  void parallel_for_index(std::size_t n, const Fn& fn) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
};

std::uint64_t ok_chunk_partials(Pool& pool, std::size_t chunks,
                                const std::vector<std::uint32_t>& xs) {
  std::vector<std::uint64_t> partials(chunks, 0);
  pool.parallel_for_range(
      xs.size(), [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          partials[chunk] += xs[i];
        }
      });
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) total += partials[c];
  return total;
}

std::uint64_t ok_locals_and_atomics(Pool& pool, std::size_t n,
                                    std::atomic<std::uint64_t>& hits) {
  pool.parallel_for_index(n, [&](std::size_t i) {
    std::uint64_t local = i * 2;
    local += 1;
    hits.fetch_add(local, std::memory_order_relaxed);
  });
  return hits.load(std::memory_order_relaxed);
}

}  // namespace fixture
