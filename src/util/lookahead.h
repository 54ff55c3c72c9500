// A fixed-depth delay line for software-pipelined loops.
//
// A loop whose every iteration touches a random cache line stalls on
// each miss when it touches the line right away. Pipelined, iteration
// k prefetches the line its work item will need and pushes the item
// here; push() hands back the item pushed kDepth pushes earlier, whose
// line has had kDepth iterations to arrive. drain() hands back what is
// still in flight when the loop ends. Every item comes out exactly
// once, in push order, so the pipelined loop does the same work as the
// plain one, only later.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace slumber::util {

template <typename T, std::size_t kDepth>
class Lookahead {
  static_assert(kDepth > 0 && (kDepth & (kDepth - 1)) == 0,
                "Lookahead depth must be a power of two");

 public:
  /// Appends `item`. Once kDepth items are in flight, moves the oldest
  /// to *out and returns true; returns false while the line fills.
  bool push(const T& item, T* out) {
    T& slot = ring_[pushed_ % kDepth];
    const bool full = pushed_ >= kDepth;
    if (full) *out = slot;
    slot = item;
    ++pushed_;
    return full;
  }

  /// Calls fn on every item still in flight, oldest first, and empties
  /// the line for reuse. fn must not push to this line.
  template <typename Fn>
  void drain(Fn&& fn) {
    const std::uint64_t first = pushed_ > kDepth ? pushed_ - kDepth : 0;
    for (std::uint64_t i = first; i < pushed_; ++i) fn(ring_[i % kDepth]);
    pushed_ = 0;
  }

 private:
  std::array<T, kDepth> ring_{};
  std::uint64_t pushed_ = 0;
};

}  // namespace slumber::util
