// Deterministic random number generation for reproducible experiments.
//
// Every run in this library is keyed by a single 64-bit seed. Per-node
// streams are derived with SplitMix64 so that adding or removing one
// consumer never perturbs the stream of another (important when comparing
// algorithms on identical topologies). The core generator is
// xoshiro256**, which is small, fast, and passes BigCrush.
#pragma once

#include <cstdint>
#include <limits>

namespace slumber {

/// SplitMix64 step; used for seeding and for stream splitting.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience distributions.
/// Satisfies UniformRandomBitGenerator, so it also works with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x5eed'1e55'c0ffee00ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Lemire's nearly-divisionless method.
  std::uint64_t below(std::uint64_t bound) {
    using u128 = unsigned __int128;
    std::uint64_t x = next();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// A fair coin flip (the paper's X_i bits).
  bool coin() { return (next() >> 63) != 0; }

  /// The two state words split() mixes a stream id into: child stream
  /// `stream_id` is Rng(splitmix64(sm)) for
  /// sm = xor_word ^ (add_word + 0x9e3779b97f4a7c15 * (stream_id + 1)).
  /// Batch kernels that seed many child streams side by side read them
  /// here (core::draw_level_bits_range).
  struct SplitKey {
    std::uint64_t xor_word;
    std::uint64_t add_word;
  };
  SplitKey split_key() const { return {state_[0], state_[3]}; }

  /// Derives an independent child stream. Deterministic in (this stream's
  /// seed history, `stream_id`), and does not advance this generator.
  Rng split(std::uint64_t stream_id) const {
    const SplitKey key = split_key();
    std::uint64_t sm =
        key.xor_word ^ (key.add_word + 0x9e3779b97f4a7c15ULL * (stream_id + 1));
    return Rng(splitmix64(sm));
  }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace slumber
