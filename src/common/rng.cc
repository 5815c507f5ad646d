#include "common/rng.h"

#include <cmath>

namespace cyclerank {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // xoshiro's all-zero state is absorbing; SplitMix64 cannot produce four
  // zero outputs in a row, but guard anyway for safety.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

uint64_t Rng::BernoulliThreshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return uint64_t{1} << 53;
  return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

void Rng::Jump() {
  static constexpr uint64_t kJump[] = {0x180EC6D33CFD0ABAull,
                                       0xD5A61266F0C9392Cull,
                                       0xA9582618E03FC9AAull,
                                       0x39ABDC4529B1661Cull};
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ull << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      Next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

}  // namespace cyclerank
