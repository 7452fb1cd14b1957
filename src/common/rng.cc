#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace rafiki {

namespace {

// The canonical double of one 64-bit draw as std::generate_canonical<double,
// 53> computes it for a 64-bit engine: a single draw, converted to double
// (round to nearest), scaled by 2^-64, and kept below 1.
double Canonical(uint64_t x) {
  double u = static_cast<double>(x) / 18446744073709551616.0;
  return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

}  // namespace

Rng::Mt64::Mt64(uint64_t seed) : i_(kN) {
  x_[0] = seed;
  for (size_t i = 1; i < kN; ++i) {
    x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }
}

void Rng::Mt64::Twist() {
  constexpr size_t kM = 156;
  constexpr uint64_t kA = 0xB5026F5AA96619E9ULL;
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  auto next = [](uint64_t cur, uint64_t succ, uint64_t far) {
    uint64_t y = (cur & kUpper) | (succ & kLower);
    return far ^ (y >> 1) ^ (-(y & 1) & kA);
  };
  size_t k = 0;
  for (; k < kN - kM; ++k) x_[k] = next(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < kN - 1; ++k) x_[k] = next(x_[k], x_[k + 1], x_[k + kM - kN]);
  x_[kN - 1] = next(x_[kN - 1], x_[0], x_[kM - 1]);
  i_ = 0;
}

uint64_t Rng::BernoulliCutoff(double p) {
  RAFIKI_CHECK_LT(p, 1.0);
  // Canonical is non-decreasing and Canonical(2^64 - 1) >= p, so the first
  // draw at or above p exists; bisect for it.
  uint64_t lo = 0, hi = ~uint64_t{0};
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (Canonical(mid) >= p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

uint64_t Rng::Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Rng::LogUniform(double lo, double hi) {
  RAFIKI_CHECK_GT(lo, 0.0);
  RAFIKI_CHECK_GT(hi, lo);
  double u = Uniform(std::log(lo), std::log(hi));
  return std::exp(u);
}

Rng Rng::Fork() { return Rng(Mix(engine_())); }

}  // namespace rafiki
