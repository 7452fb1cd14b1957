#ifndef RAFIKI_COMMON_RNG_H_
#define RAFIKI_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace rafiki {

/// Deterministic, explicitly-seeded random number generator used everywhere
/// stochastic behaviour is needed. Every experiment takes a seed so runs are
/// reproducible; `Fork()` derives decorrelated child streams (one per
/// worker / per trial) without the children sharing state.
///
/// The engine is MT19937-64, whose output sequence the C++ standard fixes,
/// so every draw below equals the std distribution's over the standard
/// library's 64-bit Mersenne Twister with the same seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Index in [0, n); n must be > 0.
  size_t Index(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Gaussian sample with the given mean and standard deviation.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p < 0 ? 0 : (p > 1 ? 1 : p));
    return dist(engine_);
  }

  /// The c for which `Next64() < c` is exactly `Bernoulli(p)` on the same
  /// draw, for p < 1: the smallest draw whose canonical double (the
  /// conversion `std::generate_canonical` makes) is >= p. One compare per
  /// draw instead of a u64 -> double conversion and a data-dependent select.
  static uint64_t BernoulliCutoff(double p);

  /// Log-uniform double in [lo, hi); lo, hi must be positive.
  double LogUniform(double lo, double hi);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = Index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator. Uses SplitMix64 on the parent
  /// stream so forked streams do not overlap in practice. Mutates the parent
  /// stream — callers sharing an Rng across threads must use Mix() instead.
  Rng Fork();

  /// Stateless SplitMix64 mix. Deriving per-task seeds as
  /// `Mix(base_seed + task_id)` gives decorrelated streams without any
  /// shared mutable state, so it is safe from concurrent threads.
  static uint64_t Mix(uint64_t x);

  /// Raw 64-bit draw.
  uint64_t Next64() { return engine_(); }

 private:
  /// MT19937-64 (Matsumoto & Nishimura), a UniformRandomBitGenerator for
  /// the std distributions above. The twist applies the matrix A as
  /// `-(y & 1) & a` rather than `(y & 1) ? a : 0`, which compilers may emit
  /// as a conditional jump on a random bit.
  class Mt64 {
   public:
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }

    explicit Mt64(uint64_t seed);

    result_type operator()() {
      if (i_ >= kN) Twist();
      uint64_t z = x_[i_++];
      z ^= (z >> 29) & 0x5555555555555555ULL;
      z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
      z ^= (z << 37) & 0xFFF7EEE000000000ULL;
      return z ^ (z >> 43);
    }

   private:
    static constexpr size_t kN = 312;
    void Twist();

    uint64_t x_[kN];
    size_t i_;
  };

  Mt64 engine_;
};

}  // namespace rafiki

#endif  // RAFIKI_COMMON_RNG_H_
