// Must-flag fixture for slumber-d5 on bare scalar captures: every lane
// mutates the same by-reference capture inside a pool lambda, and the
// merge order is scheduling-dependent.
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

std::uint64_t bad_shared_accumulator(Pool& pool,
                                     const std::vector<std::uint32_t>& xs) {
  std::uint64_t total = 0;
  pool.parallel_for_range(
      xs.size(), [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          total += xs[i];  // MUST-FLAG(slumber-d5)
        }
      });
  return total;
}

std::uint64_t bad_shared_counter(Pool& pool, std::size_t n) {
  std::uint64_t hits = 0;
  pool.parallel_for_index(n, [&](std::size_t i) {
    if (i % 3 == 0) {
      ++hits;  // MUST-FLAG(slumber-d5)
    }
  });
  return hits;
}

}  // namespace fixture
