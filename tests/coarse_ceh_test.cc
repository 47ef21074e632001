#include "core/coarse_ceh.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/ceh.h"
#include "core/exact.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "stream/generators.h"
#include "util/approx_age.h"
#include "util/random.h"

namespace tds {
namespace {

TEST(ApproxAgeTest, ExactPhaseIsExact) {
  ApproxAge age(0.25);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(age.Estimate(), 1.0);
  age.Advance(5, rng);
  EXPECT_DOUBLE_EQ(age.Estimate(), 6.0);
  age.Advance(9, rng);
  EXPECT_DOUBLE_EQ(age.Estimate(), 15.0);
  EXPECT_TRUE(age.exact_phase());
}

TEST(ApproxAgeTest, StochasticPhaseUnbiasedWithinConstantFactor) {
  // Average many independent trajectories: after T ticks the mean estimate
  // should be within a small constant of T, and individual estimates
  // within a bounded factor.
  const Tick target = 20000;
  const int trials = 300;
  double mean = 0.0;
  double worst = 1.0;
  for (int trial = 0; trial < trials; ++trial) {
    ApproxAge age(0.25);
    Rng rng(100 + trial);
    age.Advance(target - 1, rng);  // age starts at 1
    const double estimate = age.Estimate();
    mean += estimate;
    worst = std::max(worst,
                     std::max(estimate / target, target / estimate));
  }
  mean /= trials;
  EXPECT_NEAR(mean / static_cast<double>(target), 1.0, 0.15);
  // Relative std per trajectory is ~sqrt(delta/2) ~ 0.35; the worst of 300
  // trials stays within a modest constant factor.
  EXPECT_LT(worst, 4.0);
}

TEST(ApproxAgeTest, AdvanceInPiecesMatchesDistribution) {
  // Advancing 1 tick at a time and in large gaps are the same process:
  // compare means across populations.
  const Tick target = 5000;
  const int trials = 200;
  double mean_steps = 0.0, mean_jump = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    ApproxAge steps(0.25), jump(0.25);
    Rng rng1(500 + trial), rng2(900 + trial);
    for (Tick t = 0; t < target; ++t) steps.Advance(1, rng1);
    jump.Advance(target, rng2);
    mean_steps += steps.Estimate();
    mean_jump += jump.Estimate();
  }
  EXPECT_NEAR(mean_steps / mean_jump, 1.0, 0.1);
}

TEST(ApproxAgeTest, TakeYoungerKeepsSmaller) {
  ApproxAge young(0.25), old(0.25);
  Rng rng(3);
  old.Advance(1000, rng);
  ApproxAge merged = old;
  merged.TakeYounger(young);
  EXPECT_DOUBLE_EQ(merged.Estimate(), young.Estimate());
  young.TakeYounger(old);  // no-op: already younger
  EXPECT_LT(young.Estimate(), 16.0);
}

TEST(ApproxAgeTest, StorageBitsAreLogLog) {
  const int bits_small = ApproxAge::StorageBits(0.25, 1 << 10);
  const int bits_large = ApproxAge::StorageBits(0.25, 1 << 30);
  EXPECT_LE(bits_large, bits_small + 3);
  EXPECT_LE(bits_large, 14);
}

TEST(CoarseCehTest, CreateValidates) {
  auto decay = PolynomialDecay::Create(1.0).value();
  CoarseCehDecayedSum::Options options;
  options.epsilon = 0.0;
  EXPECT_FALSE(CoarseCehDecayedSum::Create(decay, options).ok());
  options.epsilon = 0.1;
  options.boundary_delta = 0.0;
  EXPECT_FALSE(CoarseCehDecayedSum::Create(decay, options).ok());
  options.boundary_delta = 0.25;
  EXPECT_TRUE(CoarseCehDecayedSum::Create(decay, options).ok());
  EXPECT_FALSE(CoarseCehDecayedSum::Create(nullptr, options).ok());
}

TEST(CoarseCehTest, ConstantFactorOnPolynomialDecay) {
  for (double alpha : {0.5, 1.0, 2.0}) {
    auto decay = PolynomialDecay::Create(alpha).value();
    CoarseCehDecayedSum::Options options;
    options.epsilon = 0.1;
    options.boundary_delta = 0.2;
    auto subject = CoarseCehDecayedSum::Create(decay, options);
    ASSERT_TRUE(subject.ok());
    auto exact = ExactDecayedSum::Create(decay);
    const Stream stream = BernoulliStream(20000, 0.5, 77);
    size_t i = 0;
    double worst = 1.0;
    for (Tick t = 1; t <= 20000; ++t) {
      if (i < stream.size() && stream[i].t == t) {
        (*subject)->Update(t, stream[i].value);
        (*exact)->Update(t, stream[i].value);
        ++i;
      }
      if (t % 1111 == 0) {
        const double truth = (*exact)->Query(t);
        const double estimate = (*subject)->Query(t);
        if (truth > 0 && estimate > 0) {
          worst = std::max(worst, std::max(estimate / truth, truth / estimate));
        }
      }
    }
    // Constant-factor contract: boundaries within ~(1.2-2.5x) move POLYD
    // weights by at most that to the alpha.
    EXPECT_LT(worst, std::pow(2.5, alpha) + 0.5) << "alpha=" << alpha;
  }
}

TEST(CoarseCehTest, StorageBeatsExactCehAndGapWidens) {
  auto decay = PolynomialDecay::Create(1.0).value();
  CoarseCehDecayedSum::Options options;
  options.epsilon = 0.1;
  auto coarse = CoarseCehDecayedSum::Create(decay, options);
  ASSERT_TRUE(coarse.ok());
  CehDecayedSum::Options exact_options;
  exact_options.epsilon = 0.1;
  auto exact_ceh = CehDecayedSum::Create(decay, exact_options);
  ASSERT_TRUE(exact_ceh.ok());
  size_t coarse_mid = 0, ceh_mid = 0;
  const Tick n = 1 << 17;
  for (Tick t = 1; t <= n; ++t) {
    (*coarse)->Update(t, 1);
    (*exact_ceh)->Update(t, 1);
    if (t == (1 << 12)) {
      coarse_mid = (*coarse)->StorageBits();
      ceh_mid = (*exact_ceh)->StorageBits();
    }
  }
  // Same bucket structure; O(log log N)-bit boundaries instead of
  // O(log N)-bit timestamps. At 2^17 the per-bucket saving is ~30% and the
  // absolute gap must widen as N grows (log vs loglog).
  const size_t coarse_bits = (*coarse)->StorageBits();
  const size_t ceh_bits = (*exact_ceh)->StorageBits();
  EXPECT_LT(static_cast<double>(coarse_bits),
            0.8 * static_cast<double>(ceh_bits));
  EXPECT_GT(ceh_bits - coarse_bits, ceh_mid - coarse_mid);
}

TEST(CoarseCehTest, ExpiresPastFiniteHorizon) {
  auto decay = SlidingWindowDecay::Create(64).value();
  CoarseCehDecayedSum::Options options;
  options.epsilon = 0.2;
  auto subject = CoarseCehDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok());
  for (Tick t = 1; t <= 200; ++t) (*subject)->Update(t, 1);
  const size_t buckets_hot = (*subject)->state().BucketCount();
  // Query alone is const and reclaims nothing; Advance runs the expiry.
  EXPECT_NEAR((*subject)->Query(5000), 0.0, 1e-9);
  (*subject)->Advance(5000);  // everything far past the window
  EXPECT_LT((*subject)->state().BucketCount(), buckets_hot);
  EXPECT_NEAR((*subject)->Query(5000), 0.0, 1e-9);
}

TEST(CoarseCehTest, BoundaryAgesTrendOldestFirst) {
  auto decay = PolynomialDecay::Create(1.0).value();
  CoarseCehDecayedSum::Options options;
  auto subject = CoarseCehDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok());
  for (Tick t = 1; t <= 5000; ++t) (*subject)->Update(t, 1);
  const auto ages = (*subject)->state().BoundaryAges();
  ASSERT_GT(ages.size(), 6u);
  // Stochastic aging jitters neighbors, but the trend must hold: the
  // oldest third of buckets is much older on average than the newest third.
  const size_t third = ages.size() / 3;
  double oldest = 0.0, newest = 0.0;
  for (size_t i = 0; i < third; ++i) oldest += ages[i];
  for (size_t i = ages.size() - third; i < ages.size(); ++i) {
    newest += ages[i];
  }
  EXPECT_GT(oldest, 4.0 * newest);
}

}  // namespace
}  // namespace tds
