// The coin kernel both engines draw X_1..X_K with (core/mis_state.h),
// pinned against the loop it replaced: one Rng::bernoulli(p) per level,
// stored one byte per level. The kernel must give the same bits and
// leave the generator in the same state, for every coin bias including
// the degenerate ones and across word boundaries. The bulk engine's
// batch kernel (core/coin_kernel.h) is pinned against it in turn, on
// every path the host has.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "core/coin_kernel.h"
#include "core/mis_state.h"
#include "util/rng.h"

namespace slumber {
namespace {

const double kBiases[] = {0.0,
                          -0.0,
                          5e-324,
                          0x1p-53,
                          0.25,
                          1.0 / 3,
                          std::nextafter(0.5, 0.0),
                          0.5,
                          std::nextafter(0.5, 1.0),
                          0.7071,
                          1 - 0x1p-53,
                          1.0,
                          1.5,
                          -0.1,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};

const std::uint32_t kLevels[] = {0, 1, 62, 63, 64, 65, 69, 128};

/// The per-level loop both engines ran before the shared kernel.
std::vector<std::uint8_t> bernoulli_loop(Rng& rng, std::uint32_t levels,
                                         double p) {
  std::vector<std::uint8_t> bits(levels + 1, 0);
  for (std::uint32_t i = 1; i <= levels; ++i) {
    bits[i] = rng.bernoulli(p) ? 1 : 0;
  }
  return bits;
}

TEST(CoinKernel, MatchesBernoulliLoop) {
  for (const double p : kBiases) {
    const std::uint64_t threshold = core::bernoulli_threshold(p);
    for (const std::uint32_t levels : kLevels) {
      for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        SCOPED_TRACE(testing::Message() << "p=" << p << " levels=" << levels
                                        << " seed=" << seed);
        Rng old_rng(seed);
        Rng new_rng(seed);
        const std::vector<std::uint8_t> expected =
            bernoulli_loop(old_rng, levels, p);
        std::vector<std::uint64_t> packed(core::level_words(levels), 0);
        for (std::uint32_t i = 1; i <= levels; ++i) {
          packed[i / 64] |= std::uint64_t{expected[i]} << (i % 64);
        }
        // Poisoned: the kernel must write every word.
        std::vector<std::uint64_t> words(core::level_words(levels),
                                         0xa5a5a5a5a5a5a5a5ULL);
        core::draw_level_bits(new_rng, levels, threshold, words);
        EXPECT_EQ(words, packed);
        EXPECT_EQ(core::unpack_level_bits(words, levels), expected);
        EXPECT_EQ(new_rng.next(), old_rng.next());
      }
    }
  }
}

TEST(CoinKernel, ThresholdIsExactAtTheBoundary) {
  // Random draws almost never land next to the threshold, so test the
  // draws around it directly against uniform()'s formula.
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  for (const double p : kBiases) {
    const std::uint64_t threshold = core::bernoulli_threshold(p);
    ASSERT_LE(threshold, kOne);
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, threshold - 1, threshold,
          threshold + 1, kOne - 1}) {
      if (x >= kOne) continue;
      EXPECT_EQ(x < threshold, static_cast<double>(x) * 0x1.0p-53 < p)
          << "p=" << p << " x=" << x;
    }
  }
}

using RangeKernel = void (*)(const Rng&, std::uint64_t, std::size_t,
                             std::uint32_t, std::uint64_t,
                             std::span<std::uint64_t>);

/// Checks `kernel` against draw_level_bits on each node's own stream,
/// over node counts that cover empty ranges, sub-8 ranges and 8-lane
/// tails, at two first nodes.
void expect_range_matches_per_node(RangeKernel kernel) {
  std::vector<std::size_t> counts;
  for (std::size_t count = 0; count <= 17; ++count) counts.push_back(count);
  counts.push_back(67);
  constexpr std::uint64_t kPoison = 0xa5a5a5a5a5a5a5a5ULL;
  for (const double p : kBiases) {
    const std::uint64_t threshold = core::bernoulli_threshold(p);
    for (const std::uint32_t levels : kLevels) {
      const std::uint32_t per_node = core::level_words(levels);
      const Rng master = Rng(levels + 1).split(7);
      for (const std::uint64_t first : {0u, 5u}) {
        SCOPED_TRACE(testing::Message() << "p=" << p << " levels=" << levels
                                        << " first=" << first);
        for (const std::size_t count : counts) {
          std::vector<std::uint64_t> expected(count * per_node);
          for (std::size_t i = 0; i < count; ++i) {
            Rng rng = master.split(first + i);
            const std::size_t at = i * per_node;
            core::draw_level_bits(rng, levels, threshold,
                                  std::span(expected).subspan(at, per_node));
          }
          // Poisoned, with one guard word past the end: the kernel must
          // write every word of the range and nothing after it.
          std::vector<std::uint64_t> words(count * per_node + 1, kPoison);
          kernel(master, first, count, levels, threshold,
                 std::span(words).first(count * per_node));
          EXPECT_EQ(words.back(), kPoison) << "count " << count;
          words.pop_back();
          EXPECT_EQ(words, expected) << "count " << count;
        }
      }
    }
  }
}

TEST(CoinKernel, RangeMatchesPerNodeStreams) {
  {
    SCOPED_TRACE("dispatcher");
    expect_range_matches_per_node(&core::draw_level_bits_range);
  }
#if defined(__x86_64__)
  if (core::coin_kernel_lanes() != 8) {
    GTEST_SKIP() << "CPU lacks AVX-512F/DQ/VL: checked the dispatcher (the "
                    "per-node loop) only, not the 8-lane kernel";
  }
  SCOPED_TRACE("avx512");
  expect_range_matches_per_node(&core::detail::draw_level_bits_range_avx512);
#else
  GTEST_SKIP() << "not x86-64: the dispatcher runs the per-node loop, and "
                  "there is no 8-lane kernel to check";
#endif
}

#if defined(__x86_64__)
/// XINUSE (XGETBV with ECX = 1): the register state components in use.
[[gnu::target("xsave")]] std::uint64_t state_in_use() {
  return __builtin_ia32_xgetbv(1);
}
#endif

TEST(CoinKernel, EightLaneBodyLeavesUpperHalvesClean) {
#if defined(__x86_64__)
  // While the upper halves of ymm0-15 / zmm0-15 are dirty, every
  // legacy-SSE instruction later run on the thread (libm, the graph
  // generator) pays a false dependency on them: on a Sapphire Rapids VM
  // a log1p loop ran about 27x slower after a body that left them
  // dirty. XINUSE bits 2 (YMM_Hi128) and 6 (ZMM_Hi256) say whether
  // they are.
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  const bool has_xinuse = __get_cpuid_count(0xd, 1, &eax, &ebx, &ecx, &edx) &&
                          (eax & 4) != 0;
  if (core::coin_kernel_lanes() != 8 || !has_xinuse) {
    GTEST_SKIP() << "needs AVX-512F/DQ/VL and XGETBV with ECX = 1";
  }
  constexpr std::uint64_t kUpperHalves = (1u << 2) | (1u << 6);
  if ((state_in_use() & kUpperHalves) != 0) {
    GTEST_SKIP() << "upper halves already dirty before the kernel ran";
  }
  const std::uint32_t levels = 69;
  const std::uint32_t per_node = core::level_words(levels);
  std::vector<std::uint64_t> words(19 * per_node);
  for (const std::size_t count : {16u, 19u}) {
    core::draw_level_bits_range(Rng(5), 0, count, levels,
                                core::bernoulli_threshold(0.5),
                                std::span(words).first(count * per_node));
    EXPECT_EQ(state_in_use() & kUpperHalves, 0u) << "count " << count;
  }
#else
  GTEST_SKIP() << "not x86-64: there is no 8-lane kernel";
#endif
}

}  // namespace
}  // namespace slumber
