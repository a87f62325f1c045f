#pragma once

#include <cmath>
#include <cstdint>

namespace pcnn {

/// Deterministic, fast pseudo-random generator (xoshiro256** seeded via
/// splitmix64). Used everywhere randomness is needed so that experiments are
/// reproducible from a single seed. Not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed.
  void reseed(std::uint64_t seed) {
    // splitmix64 to spread the seed across the four state words.
    for (auto& word : state_) word = splitmix64(seed);
  }

  /// One splitmix64 step: advances `state` by the golden-ratio increment
  /// and returns the mixed value. The n-th step from a given start state is
  /// a pure function of (start, n), so stepping a hashed key is a
  /// counter-based stream.
  static std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    return mix64(state);
  }

  /// splitmix64's output mixing: a bijective 64-bit finalizer.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1) from the top 53 of 64 random bits.
  static double unitFromBits(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  /// Raw 64 uniformly random bits.
  std::uint64_t nextU64() {
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

  /// Uniform double in [0, 1).
  double uniform() { return unitFromBits(nextU64()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniformInt(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(nextU64() % span);
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller (one value per call; no caching to keep
  /// the generator state trivially reproducible).
  double normal() {
    double u1 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Normal with explicit mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace pcnn
