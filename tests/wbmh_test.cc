#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/wbmh.h"
#include "decay/custom.h"
#include "decay/exponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "histogram/wbmh_layout.h"
#include "histogram/wbmh_state.h"
#include "stream/generators.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {
namespace {

std::shared_ptr<WbmhLayout> MakeLayout(DecayPtr decay, double epsilon,
                                       Tick start = 1) {
  WbmhLayout::Options options;
  options.decay = std::move(decay);
  options.epsilon = epsilon;
  options.start = start;
  auto layout = WbmhLayout::Create(options);
  EXPECT_TRUE(layout.ok()) << layout.status().ToString();
  return std::make_shared<WbmhLayout>(std::move(layout).value());
}

DecayPtr InverseSquare() {
  auto decay = PolynomialDecay::Create(2.0);
  EXPECT_TRUE(decay.ok());
  return decay.value();
}

// Paper Section 5 worked example: g(x) = 1/x^2, (1 + eps) = 5 gives region
// boundaries b_1 = 3, b_2 = 7, b_3 = 16.
TEST(WbmhLayoutTest, PaperExampleRegionBoundaries) {
  auto layout = MakeLayout(InverseSquare(), 4.0);
  EXPECT_EQ(layout->SealPeriod(), 2);
  ASSERT_GE(layout->RegionStarts().size(), 2u);
  EXPECT_EQ(layout->RegionStarts()[0], 1);
  EXPECT_EQ(layout->RegionStarts()[1], 3);
  // Force extension.
  EXPECT_EQ(layout->RegionIndex(3), 1);
  EXPECT_EQ(layout->RegionIndex(6), 1);
  EXPECT_EQ(layout->RegionIndex(7), 2);
  EXPECT_EQ(layout->RegionIndex(15), 2);
  EXPECT_EQ(layout->RegionIndex(16), 3);
  ASSERT_GE(layout->RegionStarts().size(), 4u);
  EXPECT_EQ(layout->RegionStarts()[2], 7);
  EXPECT_EQ(layout->RegionStarts()[3], 16);
}

std::vector<std::pair<Tick, Tick>> SettledSpans(WbmhLayout& layout, Tick t) {
  layout.AdvanceTo(t);
  layout.Settle();
  std::vector<std::pair<Tick, Tick>> spans;
  for (const auto& span : layout.Spans()) {
    // Skip a not-yet-started open bucket (created by a seal at t).
    if (span.start > t) continue;
    spans.emplace_back(span.start, std::min(span.end, t));
  }
  return spans;
}

// Paper Section 5 worked example: the exact bucket configurations printed
// for T = 1..10 (weights translate to covered arrival-tick spans).
TEST(WbmhLayoutTest, PaperExampleBucketEvolution) {
  auto layout = MakeLayout(InverseSquare(), 4.0);
  using Spans = std::vector<std::pair<Tick, Tick>>;
  EXPECT_EQ(SettledSpans(*layout, 1), (Spans{{1, 1}}));
  EXPECT_EQ(SettledSpans(*layout, 2), (Spans{{1, 2}}));
  EXPECT_EQ(SettledSpans(*layout, 3), (Spans{{1, 2}, {3, 3}}));
  EXPECT_EQ(SettledSpans(*layout, 4), (Spans{{1, 2}, {3, 4}}));
  EXPECT_EQ(SettledSpans(*layout, 6), (Spans{{1, 4}, {5, 6}}));
  EXPECT_EQ(SettledSpans(*layout, 8), (Spans{{1, 4}, {5, 6}, {7, 8}}));
  EXPECT_EQ(SettledSpans(*layout, 9),
            (Spans{{1, 4}, {5, 6}, {7, 8}, {9, 9}}));
  EXPECT_EQ(SettledSpans(*layout, 10), (Spans{{1, 4}, {5, 8}, {9, 10}}));
}

// The newest sealed bucket alternates between time-width 1 and 2 (paper).
TEST(WbmhLayoutTest, OpenBucketAlternatesWidthOneAndTwo) {
  auto layout = MakeLayout(InverseSquare(), 4.0);
  for (Tick t = 1; t <= 50; ++t) {
    layout->AdvanceTo(t);
    layout->Settle();
    const auto spans = layout->Spans();
    ASSERT_FALSE(spans.empty());
    const auto& newest = spans.back();
    const Tick width = std::min(newest.end, t) - newest.start + 1;
    if (newest.start > t) continue;  // future open bucket right after seal
    EXPECT_LE(width, 2);
    EXPECT_GE(width, 1);
  }
}

// Every sealed bucket's age span must fit within weights differing by at
// most the (1+eps) factor whenever the merge rule allowed it to form.
TEST(WbmhLayoutTest, MergedBucketsRespectRegionContainment) {
  auto decay = InverseSquare();
  auto layout = MakeLayout(decay, 1.0);
  layout->AdvanceTo(3000);
  layout->Settle();
  const Tick now = layout->now();
  const auto spans = layout->Spans();
  for (size_t i = 0; i + 1 < spans.size(); ++i) {  // sealed buckets
    const auto& span = spans[i];
    if (span.end - span.start + 1 <= layout->SealPeriod()) continue;
    // Merged bucket: at the time it merged its span fitted one region, so
    // the weight ratio across it stays within (1+eps) forever after
    // (the monotone-ratio property).
    const double newest_weight = decay->Weight(AgeAt(span.end, now));
    const double oldest_weight = decay->Weight(AgeAt(span.start, now));
    EXPECT_LE(newest_weight, (1.0 + 1.0) * oldest_weight * (1 + 1e-9))
        << "span [" << span.start << "," << span.end << "]";
  }
}

TEST(WbmhLayoutTest, BucketCountStaysLogarithmic) {
  auto layout = MakeLayout(InverseSquare(), 0.5);
  std::vector<size_t> counts;
  for (Tick t : {Tick{1} << 8, Tick{1} << 10, Tick{1} << 12, Tick{1} << 14}) {
    layout->AdvanceTo(t);
    layout->Settle();
    counts.push_back(layout->BucketCount());
  }
  // log D(g) growth: bucket count should grow by O(1) per doubling (here,
  // 4x time per step), not multiplicatively.
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_LE(counts[i], counts[i - 1] + 40);
  }
  // Paper bound: O(eps^{-1} log D(g)) with D = N^2.
  const double regions = layout->RegionCountUpTo(Tick{1} << 14);
  EXPECT_LE(static_cast<double>(counts.back()), 2.5 * regions + 4);
}

TEST(WbmhLayoutTest, SpansPartitionTimeline) {
  auto layout = MakeLayout(InverseSquare(), 2.0);
  layout->AdvanceTo(1234);
  layout->Settle();
  const auto spans = layout->Spans();
  Tick expected_start = 1;
  for (const auto& span : spans) {
    EXPECT_EQ(span.start, expected_start);
    expected_start = span.end + 1;
  }
  EXPECT_GE(spans.back().end, 1234 - layout->SealPeriod());
}

TEST(WbmhLayoutTest, FiniteHorizonDropsBuckets) {
  // A table decay with horizon 64 (monotone ratio fails, but the layout
  // machinery itself must still expire buckets past the horizon).
  auto decay = PolynomialDecay::Create(1.0).value();
  // POLYD has infinite horizon; emulate finite horizon via custom table.
  auto layout = MakeLayout(decay, 1.0);
  layout->AdvanceTo(5000);
  layout->Settle();
  // Infinite horizon: the oldest bucket still starts at 1.
  EXPECT_EQ(layout->Spans().front().start, 1);
}

// After a drop the head bucket no longer starts at the stream start; the
// layout must still audit clean and snapshot round-trip byte-identically.
TEST(WbmhLayoutTest, DroppedHeadAuditsAndRoundTrips) {
  auto truncated = CustomDecay::Create(
      [](Tick age) { return 1.0 / static_cast<double>(age); }, 64,
      "inverse_h64");
  ASSERT_TRUE(truncated.ok());
  auto layout = MakeLayout(truncated.value(), 0.5);
  const WbmhParams params(layout.get(), 0.5);
  WbmhState counter(params);
  for (Tick t = 1; t <= 1000; ++t) counter.Update(params, t, 1 + t % 3);
  counter.Sync(params);
  layout->TrimLog(layout->OpSeq());
  ASSERT_GT(layout->Spans().front().start, 1);
  EXPECT_TRUE(layout->AuditInvariants().ok());

  Encoder layout_encoder;
  ASSERT_TRUE(layout->EncodeState(layout_encoder).ok());
  Encoder counter_encoder;
  ASSERT_TRUE(counter.EncodeState(params, counter_encoder).ok());
  const std::string layout_bytes = layout_encoder.Finish();
  const std::string counter_bytes = counter_encoder.Finish();

  auto restored = MakeLayout(truncated.value(), 0.5);
  Decoder layout_decoder(layout_bytes);
  const Status decoded = restored->DecodeState(layout_decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.ToString();
  const WbmhParams restored_params(restored.get(), 0.5);
  WbmhState restored_counter(restored_params);
  Decoder counter_decoder(counter_bytes);
  ASSERT_TRUE(
      restored_counter.DecodeState(restored_params, counter_decoder).ok());
  Encoder reencoded;
  ASSERT_TRUE(restored->EncodeState(reencoded).ok());
  EXPECT_EQ(reencoded.Finish(), layout_bytes);
  EXPECT_DOUBLE_EQ(restored_counter.Query(restored_params, 1000),
                   counter.Query(params, 1000));
}

// At epsilon 0.01 the regions of 1/x^2 are narrow, and a sealed pair can
// need more regions scanned than one merge-time search covers before its
// merge turns eligible. It must still merge at its earliest eligible tick:
// no settled tick leaves a merge-eligible sealed pair (the audit), and a
// layout decoded mid-stream evolves exactly like the one encoded.
TEST(WbmhLayoutTest, SmallEpsilonMergesAtTheEarliestEligibleTick) {
  auto layout = MakeLayout(InverseSquare(), 0.01);
  std::shared_ptr<WbmhLayout> restored;
  for (Tick t = 1; t <= 1500; ++t) {
    layout->AdvanceTo(t);
    const Status audit = layout->AuditInvariants();
    ASSERT_TRUE(audit.ok()) << "t=" << t << ": " << audit.ToString();
    if (restored != nullptr) {
      restored->AdvanceTo(t);
      ASSERT_TRUE(std::ranges::equal(restored->Spans(), layout->Spans()))
          << "decoded layout diverged at t=" << t;
    }
    if (t == 600) {
      layout->TrimLog(layout->OpSeq());
      Encoder encoder;
      ASSERT_TRUE(layout->EncodeState(encoder).ok());
      const std::string bytes = encoder.Finish();
      restored = MakeLayout(InverseSquare(), 0.01);
      Decoder decoder(bytes);
      ASSERT_TRUE(restored->DecodeState(decoder).ok());
    }
  }
}

TEST(WbmhCounterTest, CountsAreConservedAcrossMerges) {
  auto layout = MakeLayout(InverseSquare(), 4.0);
  const WbmhParams params(layout.get(), 0.0);  // exact counts
  WbmhState counter(params);
  uint64_t total = 0;
  for (Tick t = 1; t <= 500; ++t) {
    const uint64_t value = 1 + (t % 3);
    counter.Update(params, t, value);
    total += value;
  }
  counter.Sync(params);
  EXPECT_DOUBLE_EQ(counter.RawTotal(), static_cast<double>(total));
}

TEST(WbmhCounterTest, RoundedCountsStayWithinEpsilon) {
  auto layout = MakeLayout(InverseSquare(), 4.0);
  const double count_epsilon = 0.1;
  const WbmhParams rounded_params(layout.get(), count_epsilon);
  const WbmhParams exact_params(layout.get(), 0.0);
  WbmhState rounded(rounded_params);
  WbmhState exact(exact_params);
  uint64_t total = 0;
  for (Tick t = 1; t <= 4000; ++t) {
    rounded.Update(rounded_params, t, 1);
    exact.Update(exact_params, t, 1);
    ++total;
  }
  // Rounding drift is one-sided (up) and bounded by (1 + eps).
  EXPECT_GE(rounded.RawTotal(), static_cast<double>(total));
  EXPECT_LE(rounded.RawTotal(),
            (1.0 + count_epsilon) * static_cast<double>(total));
}

TEST(WbmhCounterTest, SharedLayoutCountersAgree) {
  // Two counters over one shared layout, fed different streams, must each
  // behave exactly as a privately-owned structure would.
  auto decay = InverseSquare();
  auto shared = MakeLayout(decay, 1.0);
  const WbmhParams params(shared.get(), 0.0);
  WbmhState a(params);
  WbmhState b(params);
  WbmhDecayedSum::Options options;
  options.epsilon = 1.0;
  options.count_epsilon = 0.0;
  auto solo = WbmhDecayedSum::Create(decay, options);
  ASSERT_TRUE(solo.ok());

  const Stream stream_a = BernoulliStream(2000, 0.5, 11);
  const Stream stream_b = BernoulliStream(2000, 0.2, 22);
  size_t ia = 0, ib = 0;
  for (Tick t = 1; t <= 2000; ++t) {
    if (ia < stream_a.size() && stream_a[ia].t == t) {
      a.Update(params, t, stream_a[ia].value);
      (*solo)->Update(t, stream_a[ia].value);
      ++ia;
    }
    if (ib < stream_b.size() && stream_b[ib].t == t) {
      b.Update(params, t, stream_b[ib].value);
      ++ib;
    }
  }
  EXPECT_DOUBLE_EQ(a.Query(params, 2000), (*solo)->Query(2000));
  EXPECT_GT(b.Query(params, 2000), 0.0);
}

// Arrivals add exactly; a merge re-rounds once, at the width its merge
// level gives, to an overestimate within that width's factor.
TEST(WbmhCounterTest, AddIsExactMergeRounds) {
  // Paper example layout: slots {1,2} and {3,4} are sealed apart and merge
  // into {1..4} a few ticks later.
  auto layout = MakeLayout(InverseSquare(), 4.0);
  const WbmhParams params(layout.get(), 0.5);
  WbmhState counter(params);
  counter.Update(params, 1, 1000);
  counter.Update(params, 1, 3);
  EXPECT_DOUBLE_EQ(counter.RawTotal(), 1003.0);  // leaf adds are exact
  counter.Update(params, 3, 1);
  EXPECT_EQ(counter.ActiveBuckets(), 2u);
  EXPECT_DOUBLE_EQ(counter.RawTotal(), 1004.0);
  for (Tick t = 4; counter.ActiveBuckets() == 2 && t < 20; ++t) {
    counter.Advance(params, t);
  }
  ASSERT_EQ(counter.ActiveBuckets(), 1u);
  // Level 1 at count_epsilon 0.5: 2 base bits + 2 level bits, so the
  // merged count is rounded up by a factor below 1 + 2^-3.
  EXPECT_GE(counter.RawTotal(), 1004.0);
  EXPECT_LE(counter.RawTotal(), 1004.0 * (1.0 + std::ldexp(1.0, -3)));
}

TEST(WbmhCounterTest, StorageBitsAccounting) {
  auto layout = MakeLayout(InverseSquare(), 4.0);
  // One sequence register: ceil(log2(elapsed + 1)) bits with elapsed
  // clamped to at least 2.
  const size_t clock_bits = 2;
  const WbmhParams exact_params(layout.get(), 0.0);
  WbmhState exact(exact_params);
  exact.Update(exact_params, 1, 1000);
  EXPECT_EQ(exact.StorageBits(exact_params),
            10 + clock_bits);  // ceil(log2(1001))
  const WbmhParams rounded_params(layout.get(), 0.01);
  WbmhState rounded(rounded_params);
  rounded.Update(rounded_params, 1, 1000000);
  // Level-0 mantissa: 8 base bits for eps 0.01 plus 2 level bits; the
  // exponent field addresses log2(1e6) + 1 exponents (5 bits).
  EXPECT_EQ(rounded.StorageBits(rounded_params), 8 + 2 + 5 + clock_bits);
}

struct WbmhAccuracyParam {
  double alpha;
  double epsilon;
  double density;
  uint64_t seed;
};

class WbmhAccuracyTest : public ::testing::TestWithParam<WbmhAccuracyParam> {};

TEST_P(WbmhAccuracyTest, TracksPolynomialDecayWithinEpsilon) {
  const auto param = GetParam();
  auto decay = PolynomialDecay::Create(param.alpha).value();
  WbmhDecayedSum::Options options;
  options.epsilon = param.epsilon;
  auto subject = WbmhDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok());
  auto exact = ExactDecayedSum::Create(decay);
  ASSERT_TRUE(exact.ok());

  const Stream stream = BernoulliStream(3000, param.density, param.seed);
  for (const StreamItem& item : stream) {
    (*subject)->Update(item.t, item.value);
    (*exact)->Update(item.t, item.value);
  }
  for (Tick probe : {100, 500, 1500, 3000, 5000}) {
    if (probe < StreamEnd(stream)) continue;
    const double estimate = (*subject)->Query(probe);
    const double truth = (*exact)->Query(probe);
    if (truth <= 0.0) continue;
    // Bucketing error (1+eps) one-sided high, count rounding (1+eps) high;
    // weighting by the newest slot also over-weights: the estimate must be
    // an overestimate within (1+eps)^2-ish.
    EXPECT_GE(estimate, truth * (1.0 - 1e-9)) << "probe=" << probe;
    EXPECT_LE(estimate, truth * (1.0 + param.epsilon) * (1.0 + param.epsilon) *
                            (1.0 + 1e-9))
        << "probe=" << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WbmhAccuracyTest,
    ::testing::Values(WbmhAccuracyParam{0.5, 0.5, 0.5, 1},
                      WbmhAccuracyParam{1.0, 0.5, 0.5, 2},
                      WbmhAccuracyParam{2.0, 0.5, 0.5, 3},
                      WbmhAccuracyParam{2.0, 0.2, 0.5, 4},
                      WbmhAccuracyParam{1.0, 0.1, 0.8, 5},
                      WbmhAccuracyParam{3.0, 0.3, 0.3, 6},
                      WbmhAccuracyParam{1.5, 0.05, 1.0, 7}));

TEST(WbmhDecayedSumTest, TracksShiftedPolynomialDecay) {
  auto decay = ShiftedPolynomialDecay::Create(2.0, 50.0).value();
  WbmhDecayedSum::Options options;
  options.epsilon = 0.2;
  auto subject = WbmhDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  auto exact = ExactDecayedSum::Create(decay);
  const Stream stream = BernoulliStream(4000, 0.5, 41);
  for (const StreamItem& item : stream) {
    (*subject)->Update(item.t, item.value);
    (*exact)->Update(item.t, item.value);
  }
  const double truth = (*exact)->Query(4000);
  const double estimate = (*subject)->Query(4000);
  EXPECT_GE(estimate, truth * (1 - 1e-9));
  EXPECT_LE(estimate, truth * 1.45);  // (1+eps)^2
}

TEST(WbmhDecayedSumTest, RejectsNonAdmissibleDecay) {
  auto sliwin = SlidingWindowDecay::Create(100);
  ASSERT_TRUE(sliwin.ok());
  WbmhDecayedSum::Options options;
  auto result = WbmhDecayedSum::Create(sliwin.value(), options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// A count_epsilon names a mantissa width; one that does not (non-finite,
// or so small that 2 / count_epsilon overflows) is refused up front.
TEST(WbmhDecayedSumTest, CreateRejectsCountEpsilonWithoutMantissaWidth) {
  auto decay = PolynomialDecay::Create(1.0).value();
  for (const double count_epsilon :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e-320}) {
    WbmhDecayedSum::Options options;
    options.count_epsilon = count_epsilon;
    auto result = WbmhDecayedSum::Create(decay, options);
    ASSERT_FALSE(result.ok()) << "count_epsilon=" << count_epsilon;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  WbmhDecayedSum::Options tiny;
  tiny.count_epsilon = 1e-300;  // a wide but finite mantissa
  EXPECT_TRUE(WbmhDecayedSum::Create(decay, tiny).ok());
}

TEST(WbmhDecayedSumTest, ExponentialDecayIsAdmissibleButBucketHeavy) {
  // EXPD is admissible (constant ratio) but WBMH needs Theta(N) buckets for
  // it (paper Section 5) — verify it still *works*.
  auto decay = ExponentialDecay::Create(0.01).value();
  WbmhDecayedSum::Options options;
  options.epsilon = 1.0;
  auto subject = WbmhDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  auto exact = ExactDecayedSum::Create(decay);
  for (Tick t = 1; t <= 800; ++t) {
    (*subject)->Update(t, 1);
    (*exact)->Update(t, 1);
  }
  const double estimate = (*subject)->Query(800);
  const double truth = (*exact)->Query(800);
  EXPECT_NEAR(estimate, truth, truth);  // within (1+eps) = 2x
  EXPECT_GE(estimate, truth * (1 - 1e-9));
}

TEST(WbmhLayoutTest, OpLogTrimContract) {
  auto layout = MakeLayout(InverseSquare(), 2.0);
  layout->AdvanceTo(100);
  layout->Settle();
  const uint64_t seq = layout->OpSeq();
  EXPECT_GT(seq, 0u);
  layout->TrimLog(seq);
  EXPECT_EQ(layout->LogStart(), seq);
  // A counter created now starts at the trimmed position and never looks
  // back.
  const WbmhParams params(layout.get(), 0.0);
  WbmhState counter(params);
  counter.Update(params, 100, 5);
  EXPECT_DOUBLE_EQ(counter.RawTotal(), 5.0);
}

TEST(WbmhCounterTest, SparseStreamLargeGaps) {
  auto decay = PolynomialDecay::Create(1.0).value();
  WbmhDecayedSum::Options options;
  options.epsilon = 0.5;
  auto subject = WbmhDecayedSum::Create(decay, options);
  ASSERT_TRUE(subject.ok());
  auto exact = ExactDecayedSum::Create(decay);
  const Stream stream = SparseStream(200000, 50, 17);
  for (const StreamItem& item : stream) {
    (*subject)->Update(item.t, item.value);
    (*exact)->Update(item.t, item.value);
  }
  const Tick end = StreamEnd(stream) + 5000;
  const double estimate = (*subject)->Query(end);
  const double truth = (*exact)->Query(end);
  EXPECT_GE(estimate, truth * (1 - 1e-9));
  EXPECT_LE(estimate, truth * 2.5);
}


// The boundary process is a pure function of (g, eps, T): advancing one
// layout tick-by-tick and another in arbitrary jumps must produce the
// identical op sequence and final spans.
TEST(WbmhLayoutTest, DeterministicUnderAdvancementPattern) {
  auto decay = PolynomialDecay::Create(1.5).value();
  auto steps = MakeLayout(decay, 0.7);
  auto jumps = MakeLayout(decay, 0.7);
  Rng rng(2025);
  Tick t = 1;
  while (t < 4000) {
    t += 1 + static_cast<Tick>(rng.NextBelow(37));
    jumps->AdvanceTo(t);
  }
  for (Tick u = 1; u <= t; ++u) steps->AdvanceTo(u);
  ASSERT_EQ(steps->OpSeq(), jumps->OpSeq());
  for (uint64_t seq = 0; seq < steps->OpSeq(); ++seq) {
    const auto& a = steps->OpAt(seq);
    const auto& b = jumps->OpAt(seq);
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << seq;
    ASSERT_EQ(a.a, b.a) << seq;
    ASSERT_EQ(a.b, b.b) << seq;
  }
  const auto spans_a = steps->Spans();
  const auto spans_b = jumps->Spans();
  ASSERT_EQ(spans_a.size(), spans_b.size());
  for (size_t i = 0; i < spans_a.size(); ++i) {
    EXPECT_EQ(spans_a[i].start, spans_b[i].start);
    EXPECT_EQ(spans_a[i].end, spans_b[i].end);
  }
}

// Counters must be insensitive to how their updates interleave with other
// counters' syncs on a shared layout.
TEST(WbmhCounterTest, SyncOrderIndependence) {
  auto decay = PolynomialDecay::Create(1.0).value();
  auto shared = MakeLayout(decay, 0.8);
  const WbmhParams params(shared.get(), 0.0);
  WbmhState eager(params);
  WbmhState lazy(params);
  const Stream stream = BernoulliStream(3000, 0.4, 5);
  for (const StreamItem& item : stream) {
    eager.Update(params, item.t, item.value);
    eager.Sync(params);  // syncs after every update
    // Relies on Update's internal sync only.
    lazy.Update(params, item.t, item.value);
  }
  eager.Advance(params, 3000);
  lazy.Advance(params, 3000);
  EXPECT_DOUBLE_EQ(eager.Query(params, 3000), lazy.Query(params, 3000));
}

// Query() on a counter behind its shared layout replays the pending
// merges exactly as Sync() would, re-rounding included, so a read never
// depends on when the counter last synced (the engine answers point reads
// from live registries whose counters sync lazily).
TEST(WbmhCounterTest, EstimateBehindTheLayoutMatchesSynced) {
  auto shared = MakeLayout(PolynomialDecay::Create(1.0).value(), 0.5);
  const WbmhParams params(shared.get(), 0.1);
  WbmhState behind(params);
  WbmhState synced(params);
  for (Tick t = 1; t <= 300; ++t) {
    const uint64_t value = 1000 + 37 * static_cast<uint64_t>(t % 11);
    behind.Update(params, t, value);
    synced.Update(params, t, value);
  }
  for (const Tick later : {Tick{400}, Tick{1000}, Tick{3000}}) {
    shared->AdvanceTo(later);
    synced.Sync(params);
    EXPECT_LT(behind.AppliedSeq(), shared->OpSeq());
    EXPECT_EQ(behind.Query(params, later), synced.Query(params, later))
        << "later=" << later;
    EXPECT_EQ(behind.Query(params, later + 50),
              synced.Query(params, later + 50))
        << "later=" << later;
  }
}

TEST(WbmhLayoutTest, NonUnitStartOffset) {
  // Streams whose life begins late: boundaries anchor at `start`.
  WbmhLayout::Options options;
  options.decay = InverseSquare();
  options.epsilon = 4.0;
  options.start = 1001;
  auto layout = WbmhLayout::Create(options);
  ASSERT_TRUE(layout.ok());
  layout->AdvanceTo(1010);
  layout->Settle();
  std::vector<WbmhLayout::BucketSpan> spans;
  for (const auto& span : layout->Spans()) {
    if (span.start <= 1010) spans.push_back(span);  // drop future open bucket
  }
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().start, 1001);
  // Same shape as the paper example at T = 10 relative ticks:
  // {1..4},{5..8},{9,10} shifted by 1000.
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].end, 1004);
  EXPECT_EQ(spans[1].end, 1008);
}

}  // namespace
}  // namespace tds
