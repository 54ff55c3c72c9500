// The coin kernel both engines draw X_1..X_K with (core/mis_state.h),
// pinned against the loop it replaced: one Rng::bernoulli(p) per level,
// stored one byte per level. The kernel must give the same bits and
// leave the generator in the same state, for every coin bias including
// the degenerate ones and across word boundaries.
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace slumber
