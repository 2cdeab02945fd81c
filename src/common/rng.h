// Deterministic pseudo-random number generation.
//
// All data generators and randomized tests seed an Rng explicitly so every
// experiment in docs/BENCHMARKS.md is exactly reproducible. The core generator
// is splitmix64 feeding xoshiro256**, which is fast and high-quality.

#ifndef EXPLAIN3D_COMMON_RNG_H_
#define EXPLAIN3D_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace explain3d {

/// Seeded, copyable random generator (xoshiro256**).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Zipf-distributed rank in [0, n) with exponent s (popularity skew used
  /// by the IMDb generator). Uses a precomputed CDF per (n, s) call site.
  size_t Zipf(size_t n, double s);

  /// Uniformly chooses an index in [0, n).
  size_t Index(size_t n) {
    E3D_CHECK_GT(n, 0u);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator (for per-table streams).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

// --- counter-based (stateless) draws ---------------------------------------
//
// A sequential Rng's k-th draw depends on the k-1 draws before it, which
// forces consumers that must stay deterministic to stay serial. These
// counter-based draws instead hash (seed, counter) directly — draw k is
// independent of every other draw, so parallel consumers can partition
// the counter space across threads and remain bit-identical at any
// thread count. The mix is the splitmix64 finalizer over a golden-ratio-
// spaced counter stream (the same construction that seeds Rng).

/// Uniform 64-bit hash of (seed, counter).
inline uint64_t CounterHash(uint64_t seed, uint64_t counter) {
  uint64_t z = seed + (counter + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) derived from CounterHash (same 53-bit
/// mantissa construction as Rng::UniformDouble).
inline double CounterUniform(uint64_t seed, uint64_t counter) {
  return static_cast<double>(CounterHash(seed, counter) >> 11) * 0x1.0p-53;
}

/// Bernoulli draw with probability p of true for (seed, counter).
inline bool CounterBernoulli(uint64_t seed, uint64_t counter, double p) {
  return CounterUniform(seed, counter) < p;
}

}  // namespace explain3d

#endif  // EXPLAIN3D_COMMON_RNG_H_
