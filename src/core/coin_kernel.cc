#include "core/coin_kernel.h"

#include <algorithm>

#include "core/mis_state.h"

namespace slumber::core {
namespace {

/// The per-node loop: the whole range on hosts without AVX-512, and the
/// sub-8 tail of the 8-lane body.
void draw_range_per_node(const Rng& master, std::uint64_t first,
                         std::size_t count, std::uint32_t levels,
                         std::uint64_t threshold,
                         std::span<std::uint64_t> words) {
  const std::uint32_t per_node = level_words(levels);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = master.split(first + i);
    draw_level_bits(rng, levels, threshold,
                    words.subspan(i * per_node, per_node));
  }
}

#if defined(__x86_64__)

// Eight 64-bit lanes, one node's stream per lane. Every function that
// takes or returns one is compiled for AVX-512 (a 64-byte vector in the
// signature of a function compiled without it changes the psABI), and
// only coin_kernel_lanes() == 8 lets a call reach them.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
#define SLUMBER_TARGET_AVX512 [[gnu::target("avx512f,avx512dq,avx512vl")]]

SLUMBER_TARGET_AVX512 U64x8 rotl8(U64x8 x, std::uint64_t k) {
  return (x << k) | (x >> (64 - k));
}

/// splitmix64 in every lane.
SLUMBER_TARGET_AVX512 U64x8 splitmix8(U64x8& state) {
  U64x8 z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

#endif

}  // namespace

namespace detail {

#if defined(__x86_64__)

SLUMBER_TARGET_AVX512 void draw_level_bits_range_avx512(
    const Rng& master, std::uint64_t first, std::size_t count,
    std::uint32_t levels, std::uint64_t threshold,
    std::span<std::uint64_t> words) {
  const std::uint32_t per_node = level_words(levels);
  const Rng::SplitKey key = master.split_key();
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::size_t whole = count - count % 8;
  for (std::size_t base = 0; base < whole; base += 8) {
    // Rng::split(first + base + j) in lane j (split mixes stream id + 1),
    // then the Rng constructor's four splitmix64 steps.
    const U64x8 id = lane + (first + base + 1);
    U64x8 sm = key.xor_word ^ (key.add_word + 0x9e3779b97f4a7c15ULL * id);
    U64x8 seed = splitmix8(sm);
    U64x8 s0 = splitmix8(seed);
    U64x8 s1 = splitmix8(seed);
    U64x8 s2 = splitmix8(seed);
    U64x8 s3 = splitmix8(seed);
    // draw_level_bits in every lane: Rng::next() per level, X_i set iff
    // the 53-bit draw is below the threshold.
    for (std::uint32_t w = 0; w < per_node; ++w) {
      const std::uint32_t last = std::min(levels, 64 * w + 63);
      U64x8 acc = {};
      for (std::uint32_t i = w == 0 ? 1 : 64 * w; i <= last; ++i) {
        const U64x8 result = rotl8(s1 * 5, 7) * 9;
        const U64x8 t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl8(s3, 45);
        const U64x8 below =
            __builtin_convertvector((result >> 11) < threshold, U64x8);
        acc |= below & (std::uint64_t{1} << (i % 64));
      }
      for (std::size_t j = 0; j < 8; ++j) {
        words[(base + j) * per_node + w] = acc[j];
      }
    }
  }
  // Clear the vector registers' upper halves before any legacy-SSE code
  // runs on this thread (the tail below, the generator, libm): with them
  // dirty, every SSE instruction pays a false dependency on them, and
  // GCC emits no vzeroupper before the tail call itself.
  __builtin_ia32_vzeroupper();
  draw_range_per_node(master, first + whole, count - whole, levels, threshold,
                      words.subspan(whole * per_node));
}

#endif

}  // namespace detail

unsigned coin_kernel_lanes() {
#if defined(__x86_64__)
  // The host's ISA picks a speed, never a result: both kernels write
  // the same bits (CoinKernel.RangeMatchesPerNodeStreams).
  static const unsigned lanes = [] {
    __builtin_cpu_init();
    const bool avx512 = __builtin_cpu_supports("avx512f") &&
                        __builtin_cpu_supports("avx512dq") &&
                        __builtin_cpu_supports("avx512vl");
    return avx512 ? 8u : 1u;
  }();
  return lanes;
#else
  return 1;
#endif
}

void draw_level_bits_range(const Rng& master, std::uint64_t first,
                           std::size_t count, std::uint32_t levels,
                           std::uint64_t threshold,
                           std::span<std::uint64_t> words) {
#if defined(__x86_64__)
  if (coin_kernel_lanes() == 8) {
    detail::draw_level_bits_range_avx512(master, first, count, levels,
                                         threshold, words);
    return;
  }
#endif
  draw_range_per_node(master, first, count, levels, threshold, words);
}

}  // namespace slumber::core
