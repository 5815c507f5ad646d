#ifndef CYCLERANK_COMMON_RNG_H_
#define CYCLERANK_COMMON_RNG_H_

#include <cstdint>
#include <limits>

namespace cyclerank {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Used by the dataset generators and the Monte-Carlo PPR estimator. We ship
/// our own generator rather than `std::mt19937_64` so that generated
/// datasets are bit-identical across standard library implementations —
/// a requirement for reproducible experiment tables.
///
/// Satisfies the `UniformRandomBitGenerator` concept, so it can be plugged
/// into `<algorithm>` facilities such as `std::shuffle`.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the state deterministically from `seed` via SplitMix64, which
  /// guarantees a non-zero, well-mixed initial state for any input.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  // The draw methods below are defined in this header: the Monte-Carlo
  // walk loop makes two draws per step, and a call into another
  // translation unit per draw costs more than the draw itself.

  /// Next raw 64-bit draw.
  uint64_t operator()() { return Next(); }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in `[0, bound)`. `bound` must be positive. Uses
  /// Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) return 0;
    // Lemire's nearly-divisionless method.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in `[lo, hi]` inclusive. Requires `lo <= hi`.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in `[0, 1)` with 53 bits of entropy.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool NextBool(double p = 0.5) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// `NextBool(p)` for a `p` fixed across many draws, with the comparison
  /// done on integers: for every p in (0,1), `NextBelow(BernoulliThreshold(p))`
  /// consumes the same draw and returns the same value as `NextBool(p)`.
  /// The threshold is ceil(p·2^53). Both p·2^53 and y·2^-53 (y = the
  /// draw's top 53 bits) are exact doubles, so `y·2^-53 < p` holds exactly
  /// when `y < p·2^53`, that is when `y < ceil(p·2^53)`.
  static uint64_t BernoulliThreshold(double p);
  bool NextBelow(uint64_t threshold) { return (Next() >> 11) < threshold; }

  /// Standard normal deviate (Marsaglia polar method).
  double NextGaussian();

  /// Jump: advances the state by 2^128 draws, producing a stream that does
  /// not overlap the current one. Used to derive per-thread generators.
  void Jump();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_RNG_H_
