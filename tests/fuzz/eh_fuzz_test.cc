// Dual-mode fuzz driver for ExponentialHistogram: randomized but
// reproducible interleavings of Add / AdvanceTo / MergeFrom / EncodeState /
// DecodeState / EstimateWindow, asserting AuditInvariants(), the
// estimate-vs-exact error bound, and exact agreement with a naive
// unit-at-a-time reference histogram after every operation. The gtest-free core
// consumes a FuzzInput byte stream, so the same code runs both as the
// deterministic seed-driven ctest target and — under -DTDS_LIBFUZZER — as a
// coverage-guided LLVMFuzzerTestOneInput harness (docs/CORRECTNESS.md,
// "Dual-mode fuzzing").
#include "histogram/exponential_histogram.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "fuzz_util.h"
#include "reference_eh.h"
#include "util/codec.h"
#include "util/common.h"

namespace tds {
namespace {

/// Textbook sliding-window EH over ReferenceEh<Tick>: a bucket's stamp is
/// the arrival tick of its newest item, a merge keeps the newer stamp,
/// expiry drops the oldest bucket once its stamp leaves the window, and
/// the estimate counts the oldest in-window bucket at half unless the whole
/// stream lies inside the window.
class NaiveEh {
 public:
  NaiveEh(double epsilon, Tick window)
      : window_(window),
        buckets_(static_cast<uint64_t>(std::ceil(1.0 / epsilon)) + 1) {}

  void Add(Tick t, uint64_t value) {
    AdvanceTo(t);
    if (value == 0) return;
    if (first_arrival_ == 0) first_arrival_ = t;
    buckets_.Insert(value, t, [](Tick older, Tick newer) {
      return std::max(older, newer);
    });
  }

  void AdvanceTo(Tick t) {
    now_ = t;
    const Tick cutoff = now_ - window_ + 1;
    buckets_.ExpireOldest([cutoff](Tick end) { return end < cutoff; });
  }

  double EstimateWindow(Tick w) const {
    const Tick cutoff = now_ - w + 1;
    double sum = 0.0;
    double oldest_kept = 0.0;
    bool skipped = false;
    for (const auto& b : buckets_.OldestFirst()) {
      if (b.stamp < cutoff) {
        skipped = true;
      } else {
        if (oldest_kept == 0.0) oldest_kept = static_cast<double>(b.count);
        sum += static_cast<double>(b.count);
      }
    }
    if (oldest_kept > 1.0 && (skipped || first_arrival_ < cutoff)) {
      sum -= oldest_kept / 2.0;
    }
    return sum;
  }

  /// Adopts the subject's buckets and clocks (after a MergeFrom, whose
  /// replay is not the reference's business).
  void Resync(const ExponentialHistogram& eh) {
    std::vector<ReferenceEh<Tick>::Bucket> buckets;
    for (const auto& b : eh.Buckets()) buckets.push_back({b.end, b.count});
    buckets_.Assign(buckets);
    now_ = eh.now();
    first_arrival_ = eh.first_arrival();
  }

  const ReferenceEh<Tick>& buckets() const { return buckets_; }

 private:
  Tick window_;
  ReferenceEh<Tick> buckets_;
  Tick now_ = 0;
  Tick first_arrival_ = 0;
};

struct EhFuzzConfig {
  double epsilon;
  Tick window;
  int max_ops;
  /// Start just below tick 2^32 and add jumps of 2^32 ticks or more: the
  /// bucket block's offsets rebase, and under an infinite window its live
  /// stamps span past 32 bits and widen the words.
  bool far = false;
  /// Half the Adds carry cap or cap + 1 units: at cap + 1 the new units can
  /// merge among themselves and carry counted buckets up a class.
  bool straddle = false;
};

ExponentialHistogram MakeEh(double epsilon, Tick window,
                            const FuzzInput& in) {
  ExponentialHistogram::Options options;
  options.epsilon = epsilon;
  options.window = window;
  auto eh = ExponentialHistogram::Create(options);
  TDS_FUZZ_CHECK(eh.ok(), in, "Create: ", eh.status().ToString());
  return std::move(eh).value();
}

void RunEhFuzz(const EhFuzzConfig& config, FuzzInput& in) {
  ExponentialHistogram eh = MakeEh(config.epsilon, config.window, in);
  NaiveEh naive(config.epsilon, config.window);
  ExactWindowReference exact;
  Tick now = config.far ? (Tick{1} << 32) - 64 : 0;
  const uint64_t cap =
      static_cast<uint64_t>(std::ceil(1.0 / config.epsilon)) + 1;
  // MergeFrom folds in a disjoint substream; each merge widens the error
  // envelope by roughly the input histogram's own epsilon.
  int merges = 0;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(eh.AuditInvariants(), in, "after ", op);
    // Bucket for bucket, and every estimate, against the naive reference.
    const auto buckets = eh.Buckets();
    const auto expected = naive.buckets().OldestFirst();
    TDS_FUZZ_CHECK(buckets.size() == expected.size() &&
                       eh.BucketCount() == naive.buckets().BucketCount(),
                   in, "bucket count ", buckets.size(), " vs reference ",
                   expected.size(), " after ", op);
    for (size_t i = 0; i < buckets.size(); ++i) {
      TDS_FUZZ_CHECK(buckets[i].end == expected[i].stamp &&
                         buckets[i].count == expected[i].count,
                     in, "bucket ", i, " (", buckets[i].end, ", ",
                     buckets[i].count, ") vs reference (", expected[i].stamp,
                     ", ", expected[i].count, ") after ", op);
    }
    TDS_FUZZ_CHECK(eh.TotalCount() == naive.buckets().TotalCount(), in,
                   "total count after ", op);
    for (const Tick w : {Tick{1}, std::max<Tick>(1, config.window / 3)}) {
      TDS_FUZZ_CHECK(eh.EstimateWindow(w) == naive.EstimateWindow(w), in,
                     "EstimateWindow(", w, ")=", eh.EstimateWindow(w),
                     " vs reference ", naive.EstimateWindow(w), " after ", op);
    }
    TDS_FUZZ_CHECK(eh.Estimate() == naive.EstimateWindow(config.window), in,
                   "Estimate vs reference after ", op);
    if (now == 0) return;
    const double reference =
        static_cast<double>(exact.WindowCount(now, config.window));
    const double envelope_rel = config.epsilon * (1.05 + merges);
    const double slack = 1.5 + 2.0 * merges;
    TDS_FUZZ_CHECK_NEAR(eh.Estimate(), reference,
                        envelope_rel * reference + slack, in, "after ", op);
  };

  for (int op = 0; op < config.max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 6) {
      // A burst of multi-class values over a few ticks: each value spans
      // several size classes at once, so the bucket block grows, its
      // directory gains classes, and the tail fills behind expired buckets
      // (the slide) as the window moves on.
      const int burst = 4 + static_cast<int>(in.Below(20));
      for (int i = 0; i < burst; ++i) {
        now += static_cast<Tick>(in.Below(2));
        if (now == 0) now = 1;
        const uint64_t value = (1 + in.Below(8)) << in.Below(10);
        eh.Add(now, value);
        naive.Add(now, value);
        exact.Add(now, value);
        check("burst Add");
      }
    } else if (kind < 55) {
      // Add at the current tick or a short hop forward; occasional large
      // values exercise the O(cap log v) digit insertion.
      now += static_cast<Tick>(in.Below(3));
      if (now == 0) now = 1;
      uint64_t value = in.Below(20) == 0 ? 1 + in.Below(5000) : in.Below(4);
      if (config.straddle && in.Below(2) == 0) value = cap + in.Below(2);
      eh.Add(now, value);
      naive.Add(now, value);
      exact.Add(now, value);
      check("Add");
    } else if (kind < 70) {
      // Jumps larger than the window exercise wholesale expiry.
      if (config.far && in.Below(4) == 0) {
        now += (Tick{1} << 32) + static_cast<Tick>(in.Below(uint64_t{1} << 33));
      } else if (config.window == kInfiniteHorizon) {
        now += static_cast<Tick>(in.Below(4096));
      } else {
        now += static_cast<Tick>(in.Below(
            static_cast<uint64_t>(config.window) + config.window / 2 + 2));
      }
      eh.AdvanceTo(now);
      naive.AdvanceTo(now);
      check("AdvanceTo");
    } else if (kind < 80) {
      // Codec round-trip: continue the run on the decoded instance, so any
      // state the codec loses poisons every later comparison.
      Encoder encoder;
      eh.EncodeState(encoder);
      const std::string blob = encoder.Finish();
      ExponentialHistogram restored =
          MakeEh(config.epsilon, config.window, in);
      Decoder decoder(blob);
      TDS_FUZZ_CHECK_OK(restored.DecodeState(decoder), in, "DecodeState");
      TDS_FUZZ_CHECK(decoder.Done(), in, "decoder not fully consumed");
      TDS_FUZZ_CHECK_DOUBLE_EQ(restored.Estimate(), eh.Estimate(), in,
                               "decode round-trip");
      eh = std::move(restored);
      check("DecodeState");
    } else if (kind < 85 && merges < 3) {
      // Merge in a short disjoint substream living in the recent past.
      ExponentialHistogram other =
          MakeEh(config.epsilon, config.window, in);
      ExactWindowReference other_exact;
      const int burst = 1 + static_cast<int>(in.Below(40));
      Tick other_now =
          std::max<Tick>(1, now - static_cast<Tick>(in.Below(20)));
      for (int i = 0; i < burst; ++i) {
        other_now += static_cast<Tick>(in.Below(2));
        const uint64_t value = 1 + in.Below(3);
        other.Add(other_now, value);
        other_exact.Add(other_now, value);
      }
      now = std::max(now, other_now);
      TDS_FUZZ_CHECK_OK(eh.MergeFrom(other), in, "MergeFrom");
      naive.Resync(eh);
      exact.MergeFrom(other_exact);
      ++merges;
      check("MergeFrom");
    } else {
      // Lemma 4.1: the same structure answers every window w <= W.
      eh.AdvanceTo(now);
      naive.AdvanceTo(now);
      const Tick w = 1 + static_cast<Tick>(
                             in.Below(static_cast<uint64_t>(config.window)));
      TDS_FUZZ_CHECK(eh.EstimateWindow(w) == naive.EstimateWindow(w), in,
                     "EstimateWindow vs reference at w=", w);
      const double reference =
          static_cast<double>(exact.WindowCount(now, w));
      const double envelope_rel = config.epsilon * (1.05 + merges);
      const double slack = 1.5 + 2.0 * merges;
      TDS_FUZZ_CHECK_NEAR(eh.EstimateWindow(w), reference,
                          envelope_rel * reference + slack, in, "w=", w);
      check("EstimateWindow");
    }
  }
}

}  // namespace
}  // namespace tds

#ifndef TDS_LIBFUZZER

#include <gtest/gtest.h>

namespace tds {
namespace {

struct FuzzCase {
  uint64_t seed;
  double epsilon;
  Tick window;
  int ops;
  bool far = false;
  bool straddle = false;
};

class EhFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EhFuzzTest, InterleavedOpsKeepInvariantsAndAccuracy) {
  const FuzzCase fuzz = GetParam();
  FuzzInput in = FuzzInput::FromSeed(
      fuzz.seed, static_cast<size_t>(fuzz.ops) * 16);
  RunEhFuzz({fuzz.epsilon, fuzz.window, fuzz.ops, fuzz.far, fuzz.straddle},
            in);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EhFuzzTest,
    ::testing::Values(FuzzCase{0xe401, 0.1, 64, 1200},
                      FuzzCase{0xe402, 0.1, 512, 1200},
                      FuzzCase{0xe403, 0.02, 128, 900},
                      FuzzCase{0xe404, 0.5, 32, 1200},
                      FuzzCase{0xe405, 0.25, 1024, 900},
                      FuzzCase{0xF1A1, 0.1, 64, 1200},
                      FuzzCase{0xF1A2, 0.1, 512, 1200},
                      FuzzCase{0xF1A3, 0.02, 128, 900},
                      FuzzCase{0xF1A4, 0.5, 32, 1200},
                      FuzzCase{0xF1A5, 0.25, 1024, 900},
                      // Wide classes (cap 101): blocks of hundreds of
                      // buckets that grow, slide and empty.
                      FuzzCase{0xe406, 0.01, 256, 900},
                      FuzzCase{0xe407, 0.01, 2048, 900},
                      // Ticks past 32 bits: rebased, emptied and (under
                      // an infinite window) widened bucket blocks.
                      FuzzCase{0xe408, 0.1, 512, 1200, true},
                      FuzzCase{0xe409, 0.1, kInfiniteHorizon, 1200, true},
                      FuzzCase{0xe40a, 0.5, kInfiniteHorizon, 1200, true},
                      // Values of cap and cap + 1: new units merging with
                      // stored buckets and among themselves.
                      FuzzCase{0xe40b, 0.1, 256, 1200, false, true},
                      FuzzCase{0xe40c, 0.5, 64, 1200, false, true},
                      FuzzCase{0xe40d, 0.25, kInfiniteHorizon, 900, true,
                               true}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      const Tick window = info.param.window;
      return "Seed" + std::to_string(info.param.seed & 0xff) + "Eps" +
             std::to_string(static_cast<int>(info.param.epsilon * 100)) +
             "W" +
             (window == kInfiniteHorizon ? "Inf" : std::to_string(window)) +
             (info.param.far ? "Far" : "") +
             (info.param.straddle ? "Straddle" : "");
    });

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point: the leading bytes pick the histogram
// configuration, the rest drive the op stream.
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tds::FuzzInput in(data, size);
  constexpr double kEpsilons[] = {0.02, 0.1, 0.25, 0.5};
  constexpr tds::Tick kWindows[] = {32, 64, 128, 512, 1024};
  tds::EhFuzzConfig config;
  config.epsilon = kEpsilons[in.Below(4)];
  config.window = kWindows[in.Below(5)];
  config.max_ops = 4096;
  tds::RunEhFuzz(config, in);
  return 0;
}

#endif  // TDS_LIBFUZZER
