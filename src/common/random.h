#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace humo {

/// Deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64).
///
/// Every randomized component in the library takes an explicit seed so that
/// experiments are reproducible run-to-run; std::mt19937 is avoided because
/// its distributions are not guaranteed identical across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller (cached spare deviate).
  double NextGaussian();

  /// Gaussian with given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Deterministic per-task stream: an independent generator derived from a
  /// base seed and a task/stream id. Stream() does not consume state from
  /// any existing generator, so tasks scheduled in any order (or on any
  /// number of threads) always see identical draws — the contract
  /// ThreadPool::ParallelFor bodies rely on.
  static Rng Stream(uint64_t seed, uint64_t stream_id);

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      // Value-based swap: also works for std::vector<bool> proxy references.
      T tmp = (*v)[i];
      (*v)[i] = (*v)[j];
      (*v)[j] = tmp;
    }
  }

  /// Draws k distinct indices uniformly from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace humo
