// util::Lookahead, the delay line behind the pipelined generator passes
// and Graph::from_csr's mirror probes: whatever the push count, every
// item comes out exactly once and in push order (from push() once the
// line is full, from drain() at the end), and a drained line starts
// over empty.
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/lookahead.h"

namespace slumber {
namespace {

constexpr std::size_t kDepth = 8;

/// Pushes items first, first+1, ..., first+count-1 and returns what
/// push() and drain() hand back, in order.
std::vector<std::uint64_t> run_line(
    util::Lookahead<std::uint64_t, kDepth>& line, std::uint64_t first,
    std::size_t count) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t due = 0;
    const bool full = line.push(first + i, &due);
    EXPECT_EQ(full, i >= kDepth) << "push " << i;
    if (full) out.push_back(due);
  }
  EXPECT_EQ(out.size(), count > kDepth ? count - kDepth : 0);
  line.drain([&out](std::uint64_t item) { out.push_back(item); });
  return out;
}

TEST(Lookahead, EveryItemOnceInPushOrder) {
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, kDepth - 1, kDepth, kDepth + 1,
        3 * kDepth + 5}) {
    SCOPED_TRACE(testing::Message() << count << " pushes");
    util::Lookahead<std::uint64_t, kDepth> line;
    std::vector<std::uint64_t> expected(count);
    for (std::size_t i = 0; i < count; ++i) expected[i] = 100 + i;
    EXPECT_EQ(run_line(line, 100, count), expected);
    // Reusable after drain: nothing left over, the next run starts
    // empty.
    std::vector<std::uint64_t> again(count);
    for (std::size_t i = 0; i < count; ++i) again[i] = 500 + i;
    EXPECT_EQ(run_line(line, 500, count), again);
    std::size_t leftovers = 0;
    line.drain([&leftovers](std::uint64_t) { ++leftovers; });
    EXPECT_EQ(leftovers, 0u);
  }
}

}  // namespace
}  // namespace slumber
