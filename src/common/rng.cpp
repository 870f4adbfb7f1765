#include "common/rng.hpp"

namespace flov {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  FLOV_DCHECK(bound > 0, "next_below(0)");
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next_u64()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

int Rng::next_int(int lo, int hi) {
  FLOV_DCHECK(lo <= hi, "next_int range");
  return lo + static_cast<int>(next_below(
                  static_cast<std::uint64_t>(hi - lo) + 1));
}

Rng Rng::split() { return Rng(next_u64() ^ 0xA5A5A5A55A5A5A5Aull); }

}  // namespace flov
