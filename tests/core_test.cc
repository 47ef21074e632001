#include <cmath>
#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "core/ceh.h"
#include "core/decayed_average.h"
#include "core/ewma.h"
#include "core/exact.h"
#include "core/factory.h"
#include "core/polyexp_counter.h"
#include "core/recent_items.h"
#include "core/wbmh.h"
#include "decay/custom.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "stream/generators.h"
#include "util/random.h"

namespace tds {
namespace {

double BruteDecayedSum(const Stream& stream, const DecayFunction& g,
                       Tick now) {
  double sum = 0.0;
  for (const StreamItem& item : stream) {
    const Tick age = AgeAt(item.t, now);
    if (age > g.Horizon()) continue;
    sum += static_cast<double>(item.value) * g.Weight(age);
  }
  return sum;
}

TEST(ExactDecayedSumTest, MatchesBruteForce) {
  auto decay = PolynomialDecay::Create(1.5).value();
  auto exact = ExactDecayedSum::Create(decay);
  ASSERT_TRUE(exact.ok());
  const Stream stream = PoissonStream(500, 1.3, 5);
  for (const StreamItem& item : stream) (*exact)->Update(item.t, item.value);
  for (Tick now : {500, 600, 1000}) {
    EXPECT_NEAR((*exact)->Query(now), BruteDecayedSum(stream, *decay, now),
                1e-9);
  }
}

TEST(ExactDecayedSumTest, PrunesPastHorizon) {
  auto decay = SlidingWindowDecay::Create(50).value();
  auto exact = ExactDecayedSum::Create(decay);
  for (Tick t = 1; t <= 1000; ++t) (*exact)->Update(t, 1);
  EXPECT_LE((*exact)->state().ItemCount(), 51u);
  EXPECT_DOUBLE_EQ((*exact)->Query(1000), 50.0);
}

// Regression: a zero-value update advances the clock and must still prune —
// the early-return path once left expired entries resident (caught by
// AuditInvariants in the core fuzz driver).
TEST(ExactDecayedSumTest, ZeroValueUpdatePrunesExpiredEntries) {
  auto decay = SlidingWindowDecay::Create(10).value();
  auto exact = ExactDecayedSum::Create(decay);
  (*exact)->Update(1, 7);
  (*exact)->Update(1000, 0);  // far past the horizon, adds nothing
  EXPECT_EQ((*exact)->state().ItemCount(), 0u);
  EXPECT_TRUE((*exact)->AuditInvariants().ok());
}

TEST(EwmaCounterTest, MatchesExactExponentialSum) {
  auto decay = ExponentialDecay::Create(0.05).value();
  auto ewma = EwmaCounter::Create(decay, {});
  ASSERT_TRUE(ewma.ok());
  const Stream stream = BernoulliStream(2000, 0.6, 3);
  for (const StreamItem& item : stream) (*ewma)->Update(item.t, item.value);
  for (Tick now : {2000, 2100}) {
    const double truth = BruteDecayedSum(stream, *decay, now);
    EXPECT_NEAR((*ewma)->Query(now), truth, 1e-6 * truth + 1e-12);
  }
}

TEST(EwmaCounterTest, QuantizedRegisterStaysAccurate) {
  auto decay = ExponentialDecay::Create(0.02).value();
  EwmaCounter::Options options;
  options.mantissa_bits = 24;
  auto ewma = EwmaCounter::Create(decay, options);
  ASSERT_TRUE(ewma.ok());
  auto exact = ExactDecayedSum::Create(decay);
  for (Tick t = 1; t <= 5000; ++t) {
    (*ewma)->Update(t, 1);
    (*exact)->Update(t, 1);
  }
  const double truth = (*exact)->Query(5000);
  EXPECT_NEAR((*ewma)->Query(5000), truth, 0.01 * truth);
}

TEST(EwmaCounterTest, RequiresExponentialDecay) {
  auto poly = PolynomialDecay::Create(2.0).value();
  EXPECT_FALSE(EwmaCounter::Create(poly, {}).ok());
}

TEST(RecentItemsTest, TracksExponentialSumWithinEpsilon) {
  const double epsilon = 0.1;
  auto decay = ExponentialDecay::Create(0.1).value();
  RecentItemsExpCounter::Options options;
  options.epsilon = epsilon;
  auto counter = RecentItemsExpCounter::Create(decay, options);
  ASSERT_TRUE(counter.ok());
  const Stream stream = BernoulliStream(3000, 0.5, 9);
  for (const StreamItem& item : stream) (*counter)->Update(item.t, item.value);
  const double truth = BruteDecayedSum(stream, *decay, 3000);
  const double estimate = (*counter)->Query(3000);
  EXPECT_LE(std::fabs(estimate - truth), epsilon * truth + 1e-12);
  // Capacity is a constant independent of stream length (Lemma 3.1).
  EXPECT_LE((*counter)->params().capacity, 80u);
}

TEST(RecentItemsTest, ValueShiftingPreservesContributions) {
  auto decay = ExponentialDecay::Create(0.05).value();
  RecentItemsExpCounter::Options options;
  options.epsilon = 0.05;
  auto counter = RecentItemsExpCounter::Create(decay, options);
  ASSERT_TRUE(counter.ok());
  Stream stream;
  stream.push_back(StreamItem{10, 7});
  stream.push_back(StreamItem{20, 3});
  stream.push_back(StreamItem{40, 11});
  for (const StreamItem& item : stream) (*counter)->Update(item.t, item.value);
  const double truth = BruteDecayedSum(stream, *decay, 50);
  EXPECT_NEAR((*counter)->Query(50), truth, 0.05 * truth + 1e-9);
}

TEST(PolyExpCounterTest, MatchesBruteForcePolyexpSum) {
  for (int k : {0, 1, 2, 3}) {
    auto counter =
        PolyExpCounter::Create(PolyExponentialDecay::Create(k, 0.05).value());
    ASSERT_TRUE(counter.ok());
    const DecayPtr decay = (*counter)->decay();
    const Stream stream = PoissonStream(800, 0.8, 13 + k);
    for (const StreamItem& item : stream) {
      (*counter)->Update(item.t, item.value);
    }
    for (Tick now : {800, 900}) {
      const double truth = BruteDecayedSum(stream, *decay, now);
      EXPECT_NEAR((*counter)->Query(now), truth, 1e-6 * truth + 1e-9)
          << "k=" << k << " now=" << now;
    }
  }
}

TEST(PolyExpCounterTest, QueryPolynomialCombinesMoments) {
  auto counter =
      PolyExpCounter::Create(PolyExponentialDecay::Create(2, 0.1).value());
  ASSERT_TRUE(counter.ok());
  Stream stream;
  stream.push_back(StreamItem{5, 2});
  stream.push_back(StreamItem{9, 1});
  for (const StreamItem& item : stream) (*counter)->Update(item.t, item.value);
  // p(x) = 3 + 2 x^2: brute force.
  const Tick now = 20;
  double truth = 0.0;
  for (const StreamItem& item : stream) {
    const double x = static_cast<double>(AgeAt(item.t, now));
    truth += static_cast<double>(item.value) * (3.0 + 2.0 * x * x) *
             std::exp(-0.1 * x);
  }
  EXPECT_NEAR((*counter)->state().QueryPolynomial((*counter)->params(),
                                                  {3.0, 0.0, 2.0}, now),
              truth, 1e-9);
}

struct CehParam {
  const char* name;
  double epsilon;
  double density;
  uint64_t seed;
};

// Prints the case label, so the discovered test names stay the same across
// runs instead of embedding the address of `name`.
void PrintTo(const CehParam& param, std::ostream* os) { *os << param.name; }

class CehSliwinTest : public ::testing::TestWithParam<CehParam> {};

TEST_P(CehSliwinTest, MatchesSlidingWindowWithinEpsilon) {
  const auto param = GetParam();
  auto decay = SlidingWindowDecay::Create(300).value();
  CehDecayedSum::Options options;
  options.epsilon = param.epsilon;
  auto subject = CehDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok());
  const Stream stream = BernoulliStream(4000, param.density, param.seed);
  auto exact = ExactDecayedSum::Create(decay);
  size_t i = 0;
  for (Tick t = 1; t <= 4000; ++t) {
    if (i < stream.size() && stream[i].t == t) {
      (*subject)->Update(t, stream[i].value);
      (*exact)->Update(t, stream[i].value);
      ++i;
    }
    if (t % 97 == 0) {
      const double truth = (*exact)->Query(t);
      const double estimate = (*subject)->Query(t);
      if (truth == 0.0) continue;
      EXPECT_LE(std::fabs(estimate - truth), param.epsilon * truth + 1e-9)
          << "t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CehSliwinTest,
                         ::testing::Values(CehParam{"loose", 0.5, 0.5, 1},
                                           CehParam{"mid", 0.1, 0.5, 2},
                                           CehParam{"tight", 0.05, 0.8, 3},
                                           CehParam{"sparse", 0.1, 0.05, 4}));

struct CehDecayCase {
  DecayPtr decay;
  double tolerance;  // allowed relative error
};

std::vector<CehDecayCase> CehDecayCases(double epsilon) {
  std::vector<CehDecayCase> cases;
  // Bucket-granularity weighting adds to the EH count error; allow ~3 eps.
  cases.push_back({PolynomialDecay::Create(0.5).value(), 3 * epsilon});
  cases.push_back({PolynomialDecay::Create(1.0).value(), 3 * epsilon});
  cases.push_back({PolynomialDecay::Create(2.0).value(), 3 * epsilon});
  cases.push_back({ExponentialDecay::Create(0.01).value(), 3 * epsilon});
  return cases;
}

TEST(CehDecayedSumTest, TracksGeneralDecaysWithinTolerance) {
  const double epsilon = 0.05;
  for (const auto& test_case : CehDecayCases(epsilon)) {
    CehDecayedSum::Options options;
    options.epsilon = epsilon;
    auto subject = CehDecayedSum::Create(test_case.decay, options);
    ASSERT_TRUE(subject.ok());
    auto exact = ExactDecayedSum::Create(test_case.decay);
    const Stream stream = BernoulliStream(3000, 0.5, 21);
    size_t i = 0;
    double max_rel = 0.0;
    for (Tick t = 1; t <= 3000; ++t) {
      if (i < stream.size() && stream[i].t == t) {
        (*subject)->Update(t, stream[i].value);
        (*exact)->Update(t, stream[i].value);
        ++i;
      }
      if (t % 101 == 0 || t == 3000) {
        const double truth = (*exact)->Query(t);
        if (truth <= 0.0) continue;
        const double estimate = (*subject)->Query(t);
        max_rel = std::max(max_rel, std::fabs(estimate - truth) / truth);
      }
    }
    EXPECT_LE(max_rel, test_case.tolerance)
        << "decay=" << test_case.decay->Name();
  }
}

TEST(CehDecayedSumTest, HandlesTableDecay) {
  // Piecewise-constant decay through the fully-general path (Theorem 1:
  // *any* decay function).
  auto decay = MakeTableDecay({1.0, 0.5, 0.25, 0.1, 0.0}, 20, "steps").value();
  CehDecayedSum::Options options;
  options.epsilon = 0.05;
  auto subject = CehDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok());
  auto exact = ExactDecayedSum::Create(decay);
  for (Tick t = 1; t <= 500; ++t) {
    (*subject)->Update(t, 1);
    (*exact)->Update(t, 1);
  }
  const double truth = (*exact)->Query(500);
  EXPECT_NEAR((*subject)->Query(500), truth, 0.2 * truth);
}

TEST(DecayedAverageTest, TracksWeightedAverage) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const AggregateOptions options = AggregateOptions::Builder()
                                   .epsilon(0.05)
                                   .Build()
                                   .value();
  auto average = MakeDecayedAverage(decay, options);
  ASSERT_TRUE(average.ok());
  // Values around 10 then around 20: the decayed average must move toward
  // 20 and sit between the two levels.
  Rng rng(5);
  Tick t = 1;
  for (; t <= 1000; ++t) average->Observe(t, 8 + rng.NextBelow(5));
  for (; t <= 2000; ++t) average->Observe(t, 18 + rng.NextBelow(5));
  const double avg = average->Query(2000);
  EXPECT_GT(avg, 10.0);
  EXPECT_LT(avg, 21.0);
  // EXPD-style responsiveness comparison is in the benches; here check the
  // estimate against the exact weighted average.
  auto exact_avg =
      MakeDecayedAverage(
          decay,
          AggregateOptions::Builder().backend(Backend::kExact).Build().value());
  ASSERT_TRUE(exact_avg.ok());
  Rng rng2(5);
  for (Tick u = 1; u <= 1000; ++u) exact_avg->Observe(u, 8 + rng2.NextBelow(5));
  for (Tick u = 1001; u <= 2000; ++u) {
    exact_avg->Observe(u, 18 + rng2.NextBelow(5));
  }
  EXPECT_NEAR(avg, exact_avg->Query(2000), 0.2 * exact_avg->Query(2000));
}

TEST(DecayedAverageTest, FallbackWhenEmpty) {
  auto decay = SlidingWindowDecay::Create(10).value();
  auto average = MakeDecayedAverage(decay, AggregateOptions{});
  ASSERT_TRUE(average.ok());
  EXPECT_DOUBLE_EQ(average->Query(5, -1.0), -1.0);
  average->Observe(6, 4);
  EXPECT_NEAR(average->Query(6), 4.0, 1e-9);
  // After the window passes, it reverts to the fallback.
  EXPECT_DOUBLE_EQ(average->Query(100, -1.0), -1.0);
}

TEST(FactoryTest, AutoSelectsPaperRecommendedBackends) {
  AggregateOptions options;
  auto expd = MakeDecayedSum(ExponentialDecay::Create(0.1).value(), options);
  ASSERT_TRUE(expd.ok());
  EXPECT_EQ((*expd)->Name(), "EWMA");

  auto sliwin = MakeDecayedSum(SlidingWindowDecay::Create(64).value(), options);
  ASSERT_TRUE(sliwin.ok());
  EXPECT_EQ((*sliwin)->Name(), "CEH");

  auto polyd = MakeDecayedSum(PolynomialDecay::Create(2.0).value(), options);
  ASSERT_TRUE(polyd.ok());
  EXPECT_EQ((*polyd)->Name(), "WBMH");

  auto polyexp =
      MakeDecayedSum(PolyExponentialDecay::Create(2, 0.1).value(), options);
  ASSERT_TRUE(polyexp.ok());
  EXPECT_EQ((*polyexp)->Name(), "POLYEXP_PIPE");
}

TEST(FactoryTest, ExplicitBackendsHonored) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const auto with_backend = [](Backend backend) {
    return AggregateOptions::Builder().backend(backend).Build().value();
  };
  EXPECT_EQ((*MakeDecayedSum(decay, with_backend(Backend::kExact)))->Name(),
            "EXACT");
  EXPECT_EQ((*MakeDecayedSum(decay, with_backend(Backend::kCeh)))->Name(),
            "CEH");
  EXPECT_EQ((*MakeDecayedSum(decay, with_backend(Backend::kWbmh)))->Name(),
            "WBMH");
  // Mismatched decay family for the explicit backend.
  EXPECT_FALSE(MakeDecayedSum(decay, with_backend(Backend::kEwma)).ok());
}


TEST(GeneralPolyExpTest, DecayShapeAndValidation) {
  EXPECT_FALSE(GeneralPolyExpDecay::Create({}, 0.1).ok());
  EXPECT_FALSE(GeneralPolyExpDecay::Create({1.0, -2.0}, 0.1).ok());
  EXPECT_FALSE(GeneralPolyExpDecay::Create({0.0, 0.0}, 0.1).ok());
  EXPECT_FALSE(GeneralPolyExpDecay::Create({1.0}, 0.0).ok());
  auto decay = GeneralPolyExpDecay::Create({2.0, 0.0, 3.0}, 0.1);
  ASSERT_TRUE(decay.ok());
  // g(x) = (2 + 3x^2) e^{-x/10}.
  EXPECT_NEAR((*decay)->Weight(2), (2.0 + 12.0) * std::exp(-0.2), 1e-12);
  EXPECT_FALSE((*decay)->IsWbmhAdmissible());
  EXPECT_TRUE(
      GeneralPolyExpDecay::Create({5.0}, 0.1).value()->IsWbmhAdmissible());
}

TEST(GeneralPolyExpTest, CounterTracksExactSum) {
  auto decay = GeneralPolyExpDecay::Create({1.0, 0.5, 0.0, 0.25}, 0.08);
  ASSERT_TRUE(decay.ok());
  auto counter = PolyExpCounter::Create(decay.value());
  ASSERT_TRUE(counter.ok());
  const Stream stream = PoissonStream(600, 1.1, 99);
  for (const StreamItem& item : stream) {
    (*counter)->Update(item.t, item.value);
  }
  for (Tick now : {600, 700, 1200}) {
    const double truth = BruteDecayedSum(stream, *decay.value(), now);
    EXPECT_NEAR((*counter)->Query(now), truth, 1e-6 * truth + 1e-9)
        << "now=" << now;
  }
}

TEST(GeneralPolyExpTest, FactoryAutoSelectsPipeline) {
  auto decay = GeneralPolyExpDecay::Create({1.0, 1.0}, 0.05).value();
  auto subject = MakeDecayedSum(decay, AggregateOptions{});
  ASSERT_TRUE(subject.ok());
  EXPECT_EQ((*subject)->Name(), "POLYEXP_PIPE");
}

TEST(FactoryTest, CoarseCehBackend) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const AggregateOptions options = AggregateOptions::Builder()
                                   .backend(Backend::kCoarseCeh)
                                   .Build()
                                   .value();
  auto subject = MakeDecayedSum(decay, options);
  ASSERT_TRUE(subject.ok());
  EXPECT_EQ((*subject)->Name(), "COARSE_CEH");
  for (Tick t = 1; t <= 100; ++t) (*subject)->Update(t, 1);
  EXPECT_GT((*subject)->Query(100), 0.0);
}

TEST(FactoryTest, NullDecayRejected) {
  EXPECT_FALSE(MakeDecayedSum(nullptr, AggregateOptions{}).ok());
}

TEST(FactoryTest, ResolveBackendCoversEveryDecayFamily) {
  const auto expd = ExponentialDecay::Create(0.2).value();
  const auto sliwin = SlidingWindowDecay::Create(128).value();
  const auto polyd = PolynomialDecay::Create(1.0).value();
  const auto polyexp = PolyExponentialDecay::Create(2, 0.1).value();
  const auto general = GeneralPolyExpDecay::Create({1.0, 1.0}, 0.05).value();

  // kAuto resolves to the paper's storage-optimal backend per family.
  EXPECT_EQ(ResolveBackend(*expd, Backend::kAuto), Backend::kEwma);
  EXPECT_EQ(ResolveBackend(*sliwin, Backend::kAuto), Backend::kCeh);
  EXPECT_EQ(ResolveBackend(*polyd, Backend::kAuto), Backend::kWbmh);
  EXPECT_EQ(ResolveBackend(*polyexp, Backend::kAuto), Backend::kPolyExp);
  EXPECT_EQ(ResolveBackend(*general, Backend::kAuto), Backend::kPolyExp);

  // Custom decays have no closed-form family: the numeric admissibility
  // probe routes smooth sub-exponential shapes to WBMH and everything else
  // to the works-for-anything CEH.
  const auto smooth = CustomDecay::Create(
      [](Tick age) { return 1.0 / std::sqrt(static_cast<double>(age)); },
      kInfiniteHorizon, "inv-sqrt");
  ASSERT_TRUE(smooth.ok());
  EXPECT_TRUE((*smooth)->IsWbmhAdmissible());
  EXPECT_EQ(ResolveBackend(**smooth, Backend::kAuto), Backend::kWbmh);

  const auto step = CustomDecay::Create(
      [](Tick age) { return age <= 10 ? 1.0 : 0.5; }, kInfiniteHorizon,
      "step");
  ASSERT_TRUE(step.ok());
  EXPECT_FALSE((*step)->IsWbmhAdmissible());
  EXPECT_EQ(ResolveBackend(**step, Backend::kAuto), Backend::kCeh);

  // Concrete requests pass through untouched, even against the guidance.
  EXPECT_EQ(ResolveBackend(*polyd, Backend::kCeh), Backend::kCeh);
  EXPECT_EQ(ResolveBackend(*expd, Backend::kExact), Backend::kExact);
  EXPECT_EQ(ResolveBackend(*sliwin, Backend::kCoarseCeh),
            Backend::kCoarseCeh);
}

TEST(AggregateOptionsTest, BuilderValidates) {
  const auto with_epsilon = [](double epsilon) {
    return AggregateOptions::Builder().epsilon(epsilon).Build();
  };
  EXPECT_FALSE(with_epsilon(0.0).ok());
  EXPECT_FALSE(with_epsilon(-1.0).ok());
  EXPECT_FALSE(with_epsilon(1.5).ok());
  EXPECT_FALSE(with_epsilon(NAN).ok());
  EXPECT_FALSE(with_epsilon(INFINITY).ok());
  EXPECT_TRUE(with_epsilon(1.0).ok());
  EXPECT_TRUE(with_epsilon(0.05).ok());

  EXPECT_FALSE(AggregateOptions::Builder().start(0).Build().ok());
  EXPECT_FALSE(AggregateOptions::Builder().start(-5).Build().ok());
  const auto built = AggregateOptions::Builder()
                         .backend(Backend::kWbmh)
                         .epsilon(0.25)
                         .start(7)
                         .Build();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->backend(), Backend::kWbmh);
  EXPECT_DOUBLE_EQ(built->epsilon(), 0.25);
  EXPECT_EQ(built->start(), 7);

  // Defaults are valid by construction.
  const AggregateOptions defaults;
  EXPECT_EQ(defaults.backend(), Backend::kAuto);
  EXPECT_DOUBLE_EQ(defaults.epsilon(), 0.1);
  EXPECT_EQ(defaults.start(), 1);
}

}  // namespace
}  // namespace tds
