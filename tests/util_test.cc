#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/common.h"
#include "util/morris.h"
#include "util/random.h"
#include "util/rounded_counter.h"
#include "util/stable.h"
#include "util/status.h"

#include "fuzz/fuzz_util.h"

namespace tds {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad epsilon");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::OutOfRange("too big"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, WorksWithMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

TEST(AgeAtTest, MatchesConvention) {
  // An item observed at its arrival tick has age 1.
  EXPECT_EQ(AgeAt(10, 10), 1);
  EXPECT_EQ(AgeAt(10, 15), 6);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UnitDoublesInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double o = rng.NextOpenDouble();
    EXPECT_GT(o, 0.0);
    EXPECT_LT(o, 1.0);
  }
}

TEST(RngTest, NextBelowUnbiasedish) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBelow(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(HashTest, HashedUniformIsStable) {
  const double u = HashedUniform(42, 7);
  EXPECT_EQ(u, HashedUniform(42, 7));
  EXPECT_NE(u, HashedUniform(42, 8));
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(HashTest, CombineOrderMatters) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_NE(HashCombine(1, 2, 3), HashCombine(3, 2, 1));
}

TEST(StableSamplerTest, RejectsBadP) {
  EXPECT_FALSE(StableSampler::Create(0.0).ok());
  EXPECT_FALSE(StableSampler::Create(-1.0).ok());
  EXPECT_FALSE(StableSampler::Create(2.5).ok());
  EXPECT_TRUE(StableSampler::Create(2.0).ok());
}

TEST(StableSamplerTest, CauchyMedianAbsIsOne) {
  auto sampler = StableSampler::Create(1.0);
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler->MedianAbs(), 1.0);
  // Empirical check of the median of |samples|.
  Rng rng(3);
  std::vector<double> abs_values;
  for (int i = 0; i < 100001; ++i) {
    abs_values.push_back(std::fabs(
        sampler->FromUniforms(rng.NextOpenDouble(), rng.NextOpenDouble())));
  }
  std::nth_element(abs_values.begin(), abs_values.begin() + 50000,
                   abs_values.end());
  EXPECT_NEAR(abs_values[50000], 1.0, 0.03);
}

TEST(StableSamplerTest, StabilityProperty) {
  // For p-stable X1, X2 iid: a X1 + b X2 =d (a^p + b^p)^{1/p} X. Verify via
  // quantile comparison for p = 1.
  auto sampler = StableSampler::Create(1.0);
  ASSERT_TRUE(sampler.ok());
  Rng rng(17);
  std::vector<double> combo, scaled;
  const double a = 3.0, b = 4.0;
  const double scale = a + b;  // p = 1
  for (int i = 0; i < 80000; ++i) {
    const double x1 =
        sampler->FromUniforms(rng.NextOpenDouble(), rng.NextOpenDouble());
    const double x2 =
        sampler->FromUniforms(rng.NextOpenDouble(), rng.NextOpenDouble());
    combo.push_back(a * x1 + b * x2);
    const double x3 =
        sampler->FromUniforms(rng.NextOpenDouble(), rng.NextOpenDouble());
    scaled.push_back(scale * x3);
  }
  std::sort(combo.begin(), combo.end());
  std::sort(scaled.begin(), scaled.end());
  for (double q : {0.25, 0.5, 0.75}) {
    const size_t index = static_cast<size_t>(q * combo.size());
    EXPECT_NEAR(combo[index], scaled[index],
                0.1 * (std::fabs(scaled[index]) + 1.0))
        << "q=" << q;
  }
}

TEST(StableSamplerTest, GeneralPCalibrationConsistent) {
  auto sampler = StableSampler::Create(1.5);
  ASSERT_TRUE(sampler.ok());
  // Recreating must give the identical deterministic calibration.
  auto again = StableSampler::Create(1.5);
  EXPECT_DOUBLE_EQ(sampler->MedianAbs(), again->MedianAbs());
  EXPECT_GT(sampler->MedianAbs(), 0.1);
  EXPECT_LT(sampler->MedianAbs(), 10.0);
}

TEST(MorrisCounterTest, SmallCountsRoughlyUnbiased) {
  const int trials = 400;
  const uint64_t target = 1000;
  double total = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    MorrisCounter::Options options;
    options.a = 0.1;
    options.seed = 1000 + trial;
    auto counter = MorrisCounter::Create(options);
    ASSERT_TRUE(counter.ok());
    counter->Add(target);
    total += counter->Estimate();
  }
  EXPECT_NEAR(total / trials, static_cast<double>(target),
              0.1 * static_cast<double>(target));
}

TEST(MorrisCounterTest, StorageIsLogLog) {
  MorrisCounter::Options options;
  options.a = 0.5;
  auto counter = MorrisCounter::Create(options);
  ASSERT_TRUE(counter.ok());
  counter->Add(1u << 20);
  // Register ~ log_{1.5}(2^20 * 0.5): a few dozen; bits stay single-digit.
  EXPECT_LE(counter->StorageBits(), 10);
}

TEST(MorrisCounterTest, RejectsBadBase) {
  MorrisCounter::Options options;
  options.a = 0.0;
  EXPECT_FALSE(MorrisCounter::Create(options).ok());
}

TEST(MorrisEnsembleTest, AveragingTightens) {
  MorrisEnsemble::Options options;
  options.a = 0.3;
  options.copies = 16;
  options.seed = 77;
  auto ensemble = MorrisEnsemble::Create(options);
  ASSERT_TRUE(ensemble.ok());
  ensemble->Add(5000);
  EXPECT_NEAR(ensemble->Estimate(), 5000.0, 1500.0);
}

TEST(RoundedCounterTest, RoundValueIsUpperBoundWithinFactor) {
  for (int bits : {3, 8, 16}) {
    const double beta = std::ldexp(1.0, 1 - bits);
    for (double x : {1.0, 3.0, 100.0, 12345.678, 1e12}) {
      const double rounded = RoundValue(x, bits);
      EXPECT_GE(rounded, x);
      EXPECT_LE(rounded, x * (1.0 + beta) + 1e-12);
    }
  }
}

TEST(RoundedCounterTest, ZeroBitsMeansExact) {
  EXPECT_DOUBLE_EQ(RoundValue(12345.678, 0), 12345.678);
}

// --- FuzzInput: the byte-stream contract behind the dual-mode drivers ---

TEST(FuzzInputTest, FromSeedIsDeterministic) {
  FuzzInput a = FuzzInput::FromSeed(0xE401, 256);
  FuzzInput b = FuzzInput::FromSeed(0xE401, 256);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(a.Byte(), b.Byte()) << "byte " << i;
  // A different seed diverges (first word is HashCombine(seed, 0)).
  FuzzInput c = FuzzInput::FromSeed(0xE402, 8);
  FuzzInput d = FuzzInput::FromSeed(0xE401, 8);
  EXPECT_NE(c.U64(), d.U64());
}

TEST(FuzzInputTest, FromSeedMatchesRngWordStream) {
  // FromSeed materializes FuzzRng words 8 little-endian bytes at a time —
  // the contract tools/make_fuzz_corpus.py's python twin replays.
  FuzzInput in = FuzzInput::FromSeed(42, 32);
  FuzzRng rng(42);
  for (int word = 0; word < 4; ++word) EXPECT_EQ(in.U64(), rng.Next());
}

TEST(FuzzInputTest, BelowConsumesMinimumWidthAndRespectsBound) {
  const uint8_t bytes[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  FuzzInput in(bytes, sizeof(bytes));
  EXPECT_LT(in.Below(16), 16u);
  EXPECT_EQ(in.consumed(), 1u);  // bound <= 2^8: one byte
  EXPECT_LT(in.Below(1000), 1000u);
  EXPECT_EQ(in.consumed(), 3u);  // bound <= 2^16: two bytes
  EXPECT_EQ(in.Below(1), 0u);    // degenerate bound consumes nothing
  EXPECT_EQ(in.consumed(), 3u);
  FuzzInput wide(bytes, sizeof(bytes));
  EXPECT_LT(wide.Below(UINT64_C(1) << 20), UINT64_C(1) << 20);
  EXPECT_EQ(wide.consumed(), 4u);  // bound <= 2^32: four bytes
}

TEST(FuzzInputTest, ExhaustionIsZeroAndSticky) {
  const uint8_t bytes[] = {0xAB, 0xCD};
  FuzzInput in(bytes, sizeof(bytes));
  EXPECT_FALSE(in.exhausted());
  EXPECT_EQ(in.remaining(), 2u);
  EXPECT_EQ(in.Byte(), 0xAB);
  EXPECT_EQ(in.Byte(), 0xCD);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(in.remaining(), 0u);
  // Every draw past the end is a deterministic zero, never UB.
  EXPECT_EQ(in.Byte(), 0u);
  EXPECT_EQ(in.U64(), 0u);
  EXPECT_EQ(in.Below(100), 0u);
  EXPECT_TRUE(in.exhausted());
}

}  // namespace
}  // namespace tds
