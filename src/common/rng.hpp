// Deterministic pseudo-random number generation.
//
// A self-contained xoshiro256** implementation: fast, high quality, and —
// unlike std::mt19937 + distributions — bit-identical across standard
// libraries, which keeps every experiment reproducible from its seed.
#pragma once

#include <array>
#include <cstdint>

#include "common/log.hpp"

namespace flov {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
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

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int next_int(int lo, int hi);

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derives an independent stream (for per-node generators).
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// splitmix64 finalizer: a stateless avalanche mix. Used to derive
/// schedule-independent pseudo-random values from identifying tuples
/// (seed, packet id, link, ...) where a sequential generator would make
/// the outcome depend on global event order.
constexpr std::uint64_t mix_u64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Mixes an additional word into a running hash (order-sensitive).
constexpr std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return mix_u64(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

/// Stateless Bernoulli trial: true with probability p, decided purely by
/// the hash h (uses the top 53 bits, matching Rng::next_double's mapping).
constexpr bool hash_bool(std::uint64_t h, double p) {
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

}  // namespace flov
