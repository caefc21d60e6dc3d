// Deterministic pseudo-random generation for workloads and data seeding.
//
// Everything in the repository that is "random" flows through Rng so that a
// seed fully determines a generated file system, its aging history, and the
// contents of every file — which is what lets dump/restore round-trip tests
// verify data without storing a golden copy.
#ifndef BKUP_UTIL_RANDOM_H_
#define BKUP_UTIL_RANDOM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace bkup {

// SplitMix64: used to expand a user seed into stream seeds.
constexpr uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// xoshiro256** by Blackman & Vigna; fast, high quality, tiny state.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& s : state_) {
      s = SplitMix64(sm);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

  // Uniform in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  bool Chance(double p) { return NextDouble() < p; }

  // Lognormal(mu, sigma) via Box-Muller; used for file-size distributions.
  double LogNormal(double mu, double sigma) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0.0) {
      u1 = 1e-12;
    }
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.14159265358979323846 * u2);
    return std::exp(mu + sigma * z);
  }

  // Fill `out` with deterministic bytes: each draw, little-endian.
  void Fill(std::span<uint8_t> out) {
    size_t i = 0;
    while (i + 8 <= out.size()) {
      uint64_t v = Next();
      if constexpr (std::endian::native == std::endian::big) {
        v = __builtin_bswap64(v);
      }
      std::memcpy(out.data() + i, &v, sizeof(v));
      i += 8;
    }
    if (i < out.size()) {
      const uint64_t v = Next();
      for (int b = 0; b < 8 && i < out.size(); ++i, ++b) {
        out[i] = static_cast<uint8_t>(v >> (8 * b));
      }
    }
  }

  // Lowercase alphanumeric name of the given length.
  std::string Name(size_t length) {
    static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::string s;
    s.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      s.push_back(kAlpha[Below(sizeof(kAlpha) - 1)]);
    }
    return s;
  }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace bkup

#endif  // BKUP_UTIL_RANDOM_H_
