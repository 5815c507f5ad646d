#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"

namespace cyclerank {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differ;
  }
  EXPECT_GT(differ, 30);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextBoundedZeroBoundIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, NextBoundedCoversSmallRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // mean of U[0,1)
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, JumpProducesNonOverlappingStream) {
  Rng a(42);
  Rng b(42);
  b.Jump();
  // The jumped stream should not reproduce the original's next values.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UsableWithStdShuffle) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(99);
  std::shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(RngTest, BernoulliThresholdMatchesDoubleComparison) {
  // y stands for the draw's top 53 bits, x >> 11.
  const double kAlphas[] = {0x1.0p-60,
                            0.15,
                            0.5,
                            0.85,
                            std::nextafter(0.85, 0.0),
                            std::nextafter(0.85, 1.0),
                            1.0 - 0x1.0p-53};
  for (const double alpha : kAlphas) {
    const uint64_t t = Rng::BernoulliThreshold(alpha);
    EXPECT_EQ(static_cast<double>(t), std::ceil(alpha * 0x1.0p53));
    for (const uint64_t y :
         {uint64_t{0}, t - 1, t, t + 1, (uint64_t{1} << 53) - 1}) {
      EXPECT_EQ(y < t, static_cast<double>(y) * 0x1.0p-53 < alpha)
          << "alpha=" << alpha << " y=" << y;
    }
  }
}

TEST(RngTest, NextBelowReplaysNextBool) {
  for (const double p : {0.15, 0.3, 0.85}) {
    Rng a(77), b(77);
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(a.NextBelow(threshold), b.NextBool(p)) << "p=" << p;
    }
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// Stream pins. The Monte-Carlo kernel and every generated catalog dataset
// draw from this generator, so a change to any draw method's output, or to
// the number of raw draws it consumes, would silently change reproduced
// numbers. Each pin is an FNV-1a hash of the bytes of 64 outputs
// (little-endian; doubles by their IEEE-754 bit pattern).
constexpr uint64_t kPinSeed = 2024;

uint64_t HashStream(Rng rng,
                    const std::function<void(Rng&, std::string*)>& draw) {
  std::string bytes;
  for (int i = 0; i < 64; ++i) draw(rng, &bytes);
  return binio::Fnv1a64(bytes);
}

void AppendNext(Rng& rng, std::string* out) {
  binio::AppendU64(out, rng.Next());
}

TEST(RngTest, PinnedStreams) {
  Rng rng(kPinSeed);
  EXPECT_EQ(rng.Next(), 0x0e48715a13d7772eull);
  EXPECT_EQ(rng.Next(), 0xc837f3ee8a7a1065ull);
  EXPECT_EQ(HashStream(Rng(kPinSeed), AppendNext), 0xf73a6795edaea4d0ull);
  EXPECT_EQ(HashStream(Rng(kPinSeed),
                       [](Rng& r, std::string* out) {
                         binio::AppendDouble(out, r.NextDouble());
                       }),
            0xc533557c74c203a9ull);
  EXPECT_EQ(HashStream(Rng(kPinSeed),
                       [](Rng& r, std::string* out) {
                         binio::AppendU64(out, static_cast<uint64_t>(
                                                   r.NextInRange(-1000, 1000)));
                       }),
            0x93b8a8fb8afc08e6ull);
  EXPECT_EQ(HashStream(Rng(kPinSeed),
                       [](Rng& r, std::string* out) {
                         binio::AppendDouble(out, r.NextGaussian());
                       }),
            0xa3b337a8beb30e3full);

  // NextBool(0.3): draw i is bit i.
  Rng bools(kPinSeed);
  uint64_t mask = 0;
  for (int i = 0; i < 64; ++i) mask |= uint64_t{bools.NextBool(0.3)} << i;
  EXPECT_EQ(mask, 0x38100c530a4182adull);

  Rng jumped(kPinSeed);
  jumped.Jump();
  EXPECT_EQ(HashStream(jumped, AppendNext), 0xc8b6d308c0f3aa8full);
}

TEST(RngTest, PinnedBoundedStreams) {
  // Each hash also covers one raw draw after the 64 bounded ones, so it
  // pins how many draws Lemire's rejection loop consumed. The last bound
  // rejects about half of all first draws.
  const struct {
    uint64_t bound;
    uint64_t hash;
  } kPins[] = {{1, 0x5b32257c6a4ccd0dull},
               {3, 0xd7d81bd841eee1a3ull},
               {1448, 0x34c1ead64684c877ull},
               {(uint64_t{1} << 63) + 1, 0xa5495753a93e04d2ull}};
  for (const auto& pin : kPins) {
    Rng rng(kPinSeed);
    std::string bytes;
    for (int i = 0; i < 64; ++i) {
      binio::AppendU64(&bytes, rng.NextBounded(pin.bound));
    }
    binio::AppendU64(&bytes, rng.Next());
    EXPECT_EQ(binio::Fnv1a64(bytes), pin.hash) << "bound=" << pin.bound;
  }
}

}  // namespace
}  // namespace cyclerank
