// Shared per-node MIS state for the sleeping algorithms, and the coin
// kernel both engines draw X_1..X_K with.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace slumber::core {

/// The tri-state v.inMIS variable of the paper. Numeric values match the
/// payload encoding of sim::Message::status.
enum class MisValue : std::uint64_t {
  kFalse = 0,
  kTrue = 1,
  kUnknown = 2,
};

/// Packed coin bits X_1..X_K: X_i is bit i % 64 of word i / 64 (bit 0
/// of word 0 is unused), so K levels take level_words(K) words.
inline std::uint32_t level_words(std::uint32_t levels) {
  return levels / 64 + 1;
}

/// X_i of packed coin bits.
inline bool level_bit(std::span<const std::uint64_t> words, std::uint32_t i) {
  return ((words[i / 64] >> (i % 64)) & 1) != 0;
}

/// The integer form of Rng::bernoulli(p): for every draw x = next() >> 11,
/// uniform() < p holds iff x < bernoulli_threshold(p). uniform() is
/// x * 2^-53 and scaling by a power of two is exact, so the test is
/// x < p * 2^53, i.e. x < ceil(p * 2^53) for the integer x. 0 for p <= 0
/// or NaN (never true), 2^53 for p >= 1 (always true).
inline std::uint64_t bernoulli_threshold(double p) {
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kOne;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// Draws X_1..X_levels into `words` (level_words(levels) of them, every
/// word written): one rng.next() per level in level order, X_i = 1 iff
/// the draw passes `threshold` (bernoulli_threshold of the coin bias).
/// Bit for bit what `bits[i] = rng.bernoulli(p)` per level gives, and
/// it leaves `rng` in the same state. Each word is built in a register
/// with no data-dependent branch.
inline void draw_level_bits(Rng& rng, std::uint32_t levels,
                            std::uint64_t threshold,
                            std::span<std::uint64_t> words) {
  for (std::uint32_t w = 0; w < level_words(levels); ++w) {
    const std::uint32_t last = std::min(levels, 64 * w + 63);
    std::uint64_t acc = 0;
    for (std::uint32_t i = w == 0 ? 1 : 64 * w; i <= last; ++i) {
      acc |= std::uint64_t{(rng.next() >> 11) < threshold} << (i % 64);
    }
    words[w] = acc;
  }
}

/// The coin bits as RecursionTrace::bits stores them: one byte per
/// level, index 0 unused.
inline std::vector<std::uint8_t> unpack_level_bits(
    std::span<const std::uint64_t> words, std::uint32_t levels) {
  std::vector<std::uint8_t> bits(levels + 1, 0);
  for (std::uint32_t i = 1; i <= levels; ++i) {
    bits[i] = level_bit(words, i) ? 1 : 0;
  }
  return bits;
}

struct MisState {
  MisValue value = MisValue::kUnknown;
  /// Coin bits X_1..X_K, packed as draw_level_bits writes them.
  std::vector<std::uint64_t> bits;
  /// Greedy rank for Algorithm 2's base case.
  std::uint64_t base_rank = 0;
};

}  // namespace slumber::core
