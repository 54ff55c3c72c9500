// The batch coin kernel: coin bits X_1..X_K for a contiguous range of
// nodes, each from its own child stream, bit for bit what the per-node
// kernel core::draw_level_bits (core/mis_state.h) writes.
//
// xoshiro256** and its splitmix64 seeding are shifts, rotations, XORs
// and multiplications by constants, so independent per-node streams can
// run side by side in vector lanes and give the same bits. On x86-64
// hosts whose CPU has AVX-512F, DQ and VL, one 8-lane body seeds and
// draws eight nodes at once; everywhere else the per-node loop runs.
// The choice is made once per process from CPUID and changes no bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/rng.h"

namespace slumber::core {

/// How many nodes draw_level_bits_range draws side by side on this
/// host: 8 where the CPU has AVX-512F, DQ and VL, else 1 (the per-node
/// loop). Read from CPUID on the first call.
unsigned coin_kernel_lanes();

/// For each node v in [first, first + count), draws X_1..X_levels from
/// v's stream master.split(v) into the level_words(levels) words at
/// words[(v - first) * level_words(levels)]: exactly the words
/// draw_level_bits(master.split(v), levels, threshold, ...) writes.
/// `words` holds count * level_words(levels) words, every one written.
void draw_level_bits_range(const Rng& master, std::uint64_t first,
                           std::size_t count, std::uint32_t levels,
                           std::uint64_t threshold,
                           std::span<std::uint64_t> words);

namespace detail {

#if defined(__x86_64__)
/// The 8-lane AVX-512 body draw_level_bits_range dispatches to (a count
/// that is not a multiple of 8 ends in the per-node loop). Call it only
/// where coin_kernel_lanes() == 8; tests call it directly.
void draw_level_bits_range_avx512(const Rng& master, std::uint64_t first,
                                  std::size_t count, std::uint32_t levels,
                                  std::uint64_t threshold,
                                  std::span<std::uint64_t> words);
#endif

}  // namespace detail
}  // namespace slumber::core
