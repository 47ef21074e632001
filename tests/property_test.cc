// Parameterized property sweeps: every approximate decayed-sum backend, fed
// a grid of (decay function, stream shape, epsilon), must stay within its
// accuracy envelope against the exact reference, never go negative, and be
// stable under repeated queries. This is the broad invariant net on top of
// the targeted unit tests.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/factory.h"
#include "decay/custom.h"
#include "decay/exponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "stream/generators.h"
#include "stream/replay.h"

namespace tds {
namespace {

enum class DecayKind { kExpd, kSliwin, kPolyHalf, kPolyOne, kPolyTwo, kTable };
enum class StreamKind { kBernoulli, kBursty, kPoisson, kSparse, kConstant };

DecayPtr MakeDecay(DecayKind kind) {
  switch (kind) {
    case DecayKind::kExpd:
      return ExponentialDecay::Create(0.01).value();
    case DecayKind::kSliwin:
      return SlidingWindowDecay::Create(400).value();
    case DecayKind::kPolyHalf:
      return PolynomialDecay::Create(0.5).value();
    case DecayKind::kPolyOne:
      return PolynomialDecay::Create(1.0).value();
    case DecayKind::kPolyTwo:
      return PolynomialDecay::Create(2.0).value();
    case DecayKind::kTable:
      return MakeTableDecay({1.0, 0.6, 0.3, 0.1, 0.02}, 150, "table").value();
  }
  return nullptr;
}

Stream MakeStream(StreamKind kind, Tick length, uint64_t seed) {
  switch (kind) {
    case StreamKind::kBernoulli:
      return BernoulliStream(length, 0.5, seed);
    case StreamKind::kBursty:
      return BurstyStream(length, 20, 30, 2.0, seed);
    case StreamKind::kPoisson:
      return PoissonStream(length, 1.0, seed);
    case StreamKind::kSparse:
      return SparseStream(length, std::max<Tick>(4, length / 50), seed);
    case StreamKind::kConstant:
      return ConstantStream(length, 2);
  }
  return {};
}

struct PropertyParam {
  Backend backend;
  DecayKind decay;
  StreamKind stream;
  double epsilon;
  // Allowed max relative error (backend-specific envelope; see comments at
  // the instantiation site).
  double envelope;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  const auto& p = info.param;
  std::string name;
  switch (p.backend) {
    case Backend::kCeh: name += "Ceh"; break;
    case Backend::kWbmh: name += "Wbmh"; break;
    case Backend::kEwma: name += "Ewma"; break;
    case Backend::kRecentItems: name += "Recent"; break;
    case Backend::kCoarseCeh: name += "Coarse"; break;
    default: name += "Other"; break;
  }
  switch (p.decay) {
    case DecayKind::kExpd: name += "Expd"; break;
    case DecayKind::kSliwin: name += "Sliwin"; break;
    case DecayKind::kPolyHalf: name += "PolyHalf"; break;
    case DecayKind::kPolyOne: name += "PolyOne"; break;
    case DecayKind::kPolyTwo: name += "PolyTwo"; break;
    case DecayKind::kTable: name += "Table"; break;
  }
  switch (p.stream) {
    case StreamKind::kBernoulli: name += "Bern"; break;
    case StreamKind::kBursty: name += "Bursty"; break;
    case StreamKind::kPoisson: name += "Poisson"; break;
    case StreamKind::kSparse: name += "Sparse"; break;
    case StreamKind::kConstant: name += "Const"; break;
  }
  name += "Eps" + std::to_string(static_cast<int>(p.epsilon * 100));
  return name;
}

class AccuracyEnvelopeTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(AccuracyEnvelopeTest, MaxRelativeErrorWithinEnvelope) {
  const PropertyParam param = GetParam();
  const DecayPtr decay = MakeDecay(param.decay);
  const AggregateOptions options = AggregateOptions::Builder()
                                   .backend(param.backend)
                                   .epsilon(param.epsilon)
                                   .Build()
                                   .value();
  auto subject = MakeDecayedSum(decay, options);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  auto reference = ExactDecayedSum::Create(decay);
  ASSERT_TRUE(reference.ok());
  const Stream stream = MakeStream(param.stream, 3000, param.seed);
  if (stream.empty()) GTEST_SKIP();
  const ReplayReport report =
      ReplayAndCompare(stream, **subject, **reference, 73);
  EXPECT_LE(report.max_relative_error, param.envelope)
      << (*subject)->Name() << " over " << decay->Name();
  // Estimates are never negative and storage accounting is alive.
  for (const ProbeResult& probe : report.probes) {
    EXPECT_GE(probe.estimate, 0.0);
  }
  EXPECT_GT(report.max_storage_bits, 0u);
}

// Envelopes: CEH's guarantee is per-window (1 +- eps) cascaded through the
// decay — allow 3*eps. WBMH is one-sided (1+eps) bucketing times (1+eps)
// count rounding — allow 2.5*eps + cross terms. EWMA/RecentItems are
// essentially exact / eps respectively.
INSTANTIATE_TEST_SUITE_P(
    Grid, AccuracyEnvelopeTest,
    ::testing::Values(
        // CEH across every decay family and stream shape.
        PropertyParam{Backend::kCeh, DecayKind::kSliwin, StreamKind::kBernoulli, 0.1, 0.1, 1},
        PropertyParam{Backend::kCeh, DecayKind::kSliwin, StreamKind::kBursty, 0.1, 0.1, 2},
        PropertyParam{Backend::kCeh, DecayKind::kSliwin, StreamKind::kSparse, 0.1, 0.1, 3},
        PropertyParam{Backend::kCeh, DecayKind::kPolyOne, StreamKind::kBernoulli, 0.1, 0.3, 4},
        PropertyParam{Backend::kCeh, DecayKind::kPolyOne, StreamKind::kPoisson, 0.1, 0.3, 5},
        PropertyParam{Backend::kCeh, DecayKind::kPolyTwo, StreamKind::kBursty, 0.1, 0.3, 6},
        PropertyParam{Backend::kCeh, DecayKind::kPolyHalf, StreamKind::kConstant, 0.1, 0.3, 7},
        PropertyParam{Backend::kCeh, DecayKind::kExpd, StreamKind::kBernoulli, 0.1, 0.3, 8},
        PropertyParam{Backend::kCeh, DecayKind::kTable, StreamKind::kBernoulli, 0.1, 0.35, 9},
        PropertyParam{Backend::kCeh, DecayKind::kPolyTwo, StreamKind::kSparse, 0.1, 0.35, 10},
        PropertyParam{Backend::kCeh, DecayKind::kPolyOne, StreamKind::kBernoulli, 0.02, 0.06, 11},
        PropertyParam{Backend::kCeh, DecayKind::kSliwin, StreamKind::kBernoulli, 0.5, 0.5, 12},
        // WBMH across admissible decays.
        PropertyParam{Backend::kWbmh, DecayKind::kPolyHalf, StreamKind::kBernoulli, 0.2, 0.5, 13},
        PropertyParam{Backend::kWbmh, DecayKind::kPolyOne, StreamKind::kBursty, 0.2, 0.5, 14},
        PropertyParam{Backend::kWbmh, DecayKind::kPolyTwo, StreamKind::kPoisson, 0.2, 0.5, 15},
        PropertyParam{Backend::kWbmh, DecayKind::kPolyTwo, StreamKind::kSparse, 0.2, 0.5, 16},
        PropertyParam{Backend::kWbmh, DecayKind::kPolyOne, StreamKind::kConstant, 0.1, 0.25, 17},
        PropertyParam{Backend::kWbmh, DecayKind::kPolyOne, StreamKind::kBernoulli, 0.05, 0.13, 18},
        // Coarse-boundary CEH (constant-factor contract, POLYD only).
        PropertyParam{Backend::kCoarseCeh, DecayKind::kPolyOne, StreamKind::kBernoulli, 0.1, 0.8, 24},
        PropertyParam{Backend::kCoarseCeh, DecayKind::kPolyTwo, StreamKind::kBursty, 0.1, 1.6, 25},
        PropertyParam{Backend::kCoarseCeh, DecayKind::kPolyHalf, StreamKind::kSparse, 0.1, 0.8, 26},
        // Single-register EXPD algorithms.
        PropertyParam{Backend::kEwma, DecayKind::kExpd, StreamKind::kBernoulli, 0.1, 0.001, 19},
        PropertyParam{Backend::kEwma, DecayKind::kExpd, StreamKind::kBursty, 0.1, 0.001, 20},
        PropertyParam{Backend::kEwma, DecayKind::kExpd, StreamKind::kSparse, 0.1, 0.001, 21},
        PropertyParam{Backend::kRecentItems, DecayKind::kExpd, StreamKind::kBernoulli, 0.1, 0.1, 22},
        PropertyParam{Backend::kRecentItems, DecayKind::kExpd, StreamKind::kPoisson, 0.1, 0.1, 23}),
    ParamName);

class MonotonicityTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(MonotonicityTest, RepeatedQueriesAreStableAndDecaying) {
  const PropertyParam param = GetParam();
  const DecayPtr decay = MakeDecay(param.decay);
  const AggregateOptions options = AggregateOptions::Builder()
                                   .backend(param.backend)
                                   .epsilon(param.epsilon)
                                   .Build()
                                   .value();
  auto subject = MakeDecayedSum(decay, options);
  ASSERT_TRUE(subject.ok());
  // One burst, then silence: the estimate decays over time. WBMH may tick
  // *up* by at most its (1+eps) bucketing factor when a merge re-anchors a
  // count to a newer slot; everything else must be non-increasing.
  (*subject)->Update(10, 50);
  double prev = (*subject)->Query(10);
  // Repeated query at the same tick is stable.
  EXPECT_DOUBLE_EQ((*subject)->Query(10), prev);
  const double slack = param.backend == Backend::kWbmh
                           ? (1.0 + param.epsilon) * (1.0 + param.epsilon)
                           : 1.0;
  for (Tick t = 20; t <= 2000; t += 10) {
    const double current = (*subject)->Query(t);
    EXPECT_LE(current, prev * slack * (1.0 + 1e-9)) << "t=" << t;
    prev = std::min(prev, current);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MonotonicityTest,
    ::testing::Values(
        PropertyParam{Backend::kCeh, DecayKind::kPolyOne, StreamKind::kBernoulli, 0.1, 0, 1},
        PropertyParam{Backend::kCeh, DecayKind::kSliwin, StreamKind::kBernoulli, 0.1, 0, 2},
        PropertyParam{Backend::kCeh, DecayKind::kTable, StreamKind::kBernoulli, 0.1, 0, 3},
        PropertyParam{Backend::kWbmh, DecayKind::kPolyTwo, StreamKind::kBernoulli, 0.3, 0, 4},
        PropertyParam{Backend::kEwma, DecayKind::kExpd, StreamKind::kBernoulli, 0.1, 0, 5},
        PropertyParam{Backend::kRecentItems, DecayKind::kExpd, StreamKind::kBernoulli, 0.1, 0, 6},
        PropertyParam{Backend::kExact, DecayKind::kPolyOne, StreamKind::kBernoulli, 0.1, 0, 7}),
    ParamName);

class StorageSanityTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(StorageSanityTest, StorageStaysPolylogarithmic) {
  const PropertyParam param = GetParam();
  const DecayPtr decay = MakeDecay(param.decay);
  const AggregateOptions options = AggregateOptions::Builder()
                                   .backend(param.backend)
                                   .epsilon(param.epsilon)
                                   .Build()
                                   .value();
  auto subject = MakeDecayedSum(decay, options);
  ASSERT_TRUE(subject.ok());
  size_t bits_at_4k = 0;
  for (Tick t = 1; t <= 16384; ++t) {
    (*subject)->Update(t, 1);
    if (t == 4096) bits_at_4k = (*subject)->StorageBits();
  }
  const size_t bits_at_16k = (*subject)->StorageBits();
  // Quadrupling the stream must grow storage by far less than 4x.
  EXPECT_LT(static_cast<double>(bits_at_16k),
            2.0 * static_cast<double>(bits_at_4k) + 256.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StorageSanityTest,
    ::testing::Values(
        PropertyParam{Backend::kCeh, DecayKind::kPolyOne, StreamKind::kConstant, 0.1, 0, 1},
        PropertyParam{Backend::kCeh, DecayKind::kSliwin, StreamKind::kConstant, 0.1, 0, 2},
        PropertyParam{Backend::kWbmh, DecayKind::kPolyTwo, StreamKind::kConstant, 0.5, 0, 3},
        PropertyParam{Backend::kEwma, DecayKind::kExpd, StreamKind::kConstant, 0.1, 0, 4}),
    ParamName);

}  // namespace
}  // namespace tds
