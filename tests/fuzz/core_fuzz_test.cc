// Dual-mode fuzz drivers for the Section 3 counter structures:
// ExactDecayedSum, EwmaCounter, RecentItemsExpCounter, PolyExpCounter and
// CoarseCehDecayedSum. Each driver interleaves Update / UpdateBatch /
// quiet-period advances / snapshot round-trips from a FuzzInput byte
// stream, audits structural invariants after every operation, and compares
// the estimate against a brute-force decayed sum at the guarantee each
// structure actually makes (exact, fixed-point-rounded, eps-tail, or
// constant-factor); the coarse CEH must also match a naive reference
// histogram exactly. Under -DTDS_LIBFUZZER the first input byte dispatches
// among the gtest-free cores.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/coarse_ceh.h"
#include "core/ewma.h"
#include "core/exact.h"
#include "core/polyexp_counter.h"
#include "core/recent_items.h"
#include "core/snapshot.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "fuzz_util.h"
#include "reference_eh.h"
#include "util/approx_age.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {
namespace {

/// Brute-force decayed sum: every item, weighted directly by the decay.
class ExactDecayedReference {
 public:
  explicit ExactDecayedReference(DecayPtr decay) : decay_(std::move(decay)) {}

  void Add(Tick t, uint64_t value) { items_.emplace_back(t, value); }

  double Sum(Tick now) const {
    double sum = 0.0;
    for (const auto& [t, value] : items_) {
      const Tick age = AgeAt(t, now);
      if (decay_->Horizon() != kInfiniteHorizon && age > decay_->Horizon()) {
        continue;
      }
      sum += static_cast<double>(value) * decay_->Weight(age);
    }
    return sum;
  }

 private:
  DecayPtr decay_;
  std::deque<std::pair<Tick, uint64_t>> items_;
};

/// One snapshot round-trip through the typed codec; returns the restored
/// instance (downcast to T) so the driver continues on decoded state.
template <typename T>
std::unique_ptr<T> RoundTrip(T& aggregate, const DecayPtr& decay,
                             const FuzzInput& in) {
  TDS_FUZZ_CHECK_OK(AuditSnapshotRoundTrip(aggregate), in,
                    "AuditSnapshotRoundTrip");
  std::string blob;
  TDS_FUZZ_CHECK_OK(EncodeDecayedSum(aggregate, &blob), in, "Encode");
  auto restored = DecodeDecayedSum(decay, blob);
  TDS_FUZZ_CHECK(restored.ok(), in,
                 "Decode: ", restored.status().ToString());
  auto* typed = dynamic_cast<T*>(restored->get());
  TDS_FUZZ_CHECK(typed != nullptr, in, "decoded type mismatch");
  restored->release();
  return std::unique_ptr<T>(typed);
}

// ---------------------------------------------------------------------------
// ExactDecayedSum: the estimate IS the brute-force sum; require agreement to
// floating-point noise, under both a finite-horizon and an infinite decay.

void RunExactFuzz(bool sliding, int max_ops, FuzzInput& in) {
  const DecayPtr decay = sliding ? SlidingWindowDecay::Create(64).value()
                                 : PolynomialDecay::Create(1.5).value();
  auto exact = ExactDecayedSum::Create(decay).value();
  ExactDecayedReference reference(decay);
  Tick now = 1;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(exact->AuditInvariants(), in, "after ", op);
    const double expected = reference.Sum(now);
    TDS_FUZZ_CHECK_NEAR(exact->Query(now), expected,
                        1e-9 * expected + 1e-9, in, "after ", op);
  };

  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 70) {
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value = in.Below(5);
      exact->Update(now, value);
      if (value > 0) reference.Add(now, value);
      check("Update");
    } else if (kind < 85) {
      now += static_cast<Tick>(in.Below(100));
      exact->Advance(now);
      check("Advance");
    } else {
      exact = RoundTrip(*exact, decay, in);
      check("SnapshotRoundTrip");
    }
  }
}

// ---------------------------------------------------------------------------
// EwmaCounter: with mantissa rounding off the register is the brute-force
// exponential sum to fp noise; with b mantissa bits each rounding step is a
// relative (1 +- 2^-b) perturbation. Batch ingestion must be bit-identical
// to per-item ingestion.

void RunEwmaFuzz(int mantissa_bits, int max_ops, FuzzInput& in) {
  const double lambda = 0.05;
  const DecayPtr decay = ExponentialDecay::Create(lambda).value();
  EwmaCounter::Options options;
  options.mantissa_bits = mantissa_bits;
  auto ewma = EwmaCounter::Create(decay, options).value();
  auto mirror = EwmaCounter::Create(decay, options).value();  // per-item twin
  ExactDecayedReference reference(decay);
  Tick now = 1;
  // Mantissa rounding compounds per operation: each add/decay step perturbs
  // by a relative 2^-b, so after n mutations the envelope is ~n * 2^-b.
  int mutations = 0;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(ewma->AuditInvariants(), in, "after ", op);
    const double expected = reference.Sum(now);
    const double rel =
        mantissa_bits > 0
            ? static_cast<double>(mutations) * std::ldexp(1.0, -mantissa_bits)
            : 1e-9;
    TDS_FUZZ_CHECK_NEAR(ewma->Query(now), expected, rel * expected + 1e-9,
                        in, "after ", op);
    // The per-item twin replayed the identical item sequence: bit-equal.
    TDS_FUZZ_CHECK_DOUBLE_EQ(ewma->Query(now), mirror->Query(now), in,
                             "batch/per-item divergence after ", op);
  };

  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 45) {
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value = in.Below(6);
      ewma->Update(now, value);
      mirror->Update(now, value);
      if (value > 0) reference.Add(now, value);
      mutations += 2;
      check("Update");
    } else if (kind < 70) {
      // Batch of same-tick-run items through UpdateBatch on the primary,
      // per-item on the mirror.
      std::vector<StreamItem> batch;
      const int len = 1 + static_cast<int>(in.Below(8));
      for (int i = 0; i < len; ++i) {
        now += static_cast<Tick>(in.Below(2));
        batch.push_back(StreamItem{now, in.Below(4)});
      }
      ewma->UpdateBatch(batch);
      for (const StreamItem& item : batch) {
        mirror->Update(item.t, item.value);
        if (item.value > 0) reference.Add(item.t, item.value);
      }
      mutations += 2 * len;
      check("UpdateBatch");
    } else if (kind < 85) {
      now += static_cast<Tick>(in.Below(60));
      ewma->Advance(now);
      mirror->Advance(now);
      ++mutations;
      check("Advance");
    } else {
      ewma = RoundTrip(*ewma, decay, in);
      check("SnapshotRoundTrip");
    }
  }
}

// ---------------------------------------------------------------------------
// RecentItemsExpCounter: dropping all but the C most recent items only loses
// mass, so the estimate is a lower bound on the brute-force sum; when the
// structure never overflowed its capacity the two agree to fp noise.

void RunRecentItemsFuzz(int max_ops, FuzzInput& in) {
  const double lambda = 0.1;
  const DecayPtr decay = ExponentialDecay::Create(lambda).value();
  RecentItemsExpCounter::Options options;
  options.epsilon = 0.05;
  auto recent = RecentItemsExpCounter::Create(decay, options).value();
  ExactDecayedReference reference(decay);
  Tick now = 1;
  size_t inserted = 0;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(recent->AuditInvariants(), in, "after ", op);
    const double expected = reference.Sum(now);
    const double estimate = recent->Query(now);
    TDS_FUZZ_CHECK(estimate <= expected * (1.0 + 1e-9) + 1e-9, in,
                   "estimate=", estimate, " exceeds reference=", expected);
    if (inserted <= recent->params().capacity) {
      // Nothing has been evicted yet: the value-shifted timestamps recover
      // the sum exactly.
      TDS_FUZZ_CHECK_NEAR(estimate, expected, 1e-9 * expected + 1e-9, in,
                          "after ", op);
    }
  };

  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 70) {
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value = 1 + in.Below(8);
      recent->Update(now, value);
      reference.Add(now, value);
      ++inserted;
      check("Update");
    } else if (kind < 85) {
      now += static_cast<Tick>(in.Below(40));
      recent->Advance(now);
      check("Advance");
    } else {
      recent = RoundTrip(*recent, decay, in);
      check("SnapshotRoundTrip");
    }
  }
}

// ---------------------------------------------------------------------------
// PolyExpCounter: the k+1 pipelined registers reproduce the brute-force
// polyexponential sum up to fp noise from the binomial gap jumps. Batch
// ingestion must be bit-identical to per-item ingestion.

void RunPolyExpFuzz(int k, int max_ops, FuzzInput& in) {
  const double lambda = 0.08;
  const DecayPtr decay = PolyExponentialDecay::Create(k, lambda).value();
  auto counter = PolyExpCounter::Create(decay).value();
  auto mirror = PolyExpCounter::Create(decay).value();  // per-item twin
  ExactDecayedReference reference(decay);
  Tick now = 1;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(counter->AuditInvariants(), in, "after ", op);
    const double expected = reference.Sum(now);
    TDS_FUZZ_CHECK_NEAR(counter->Query(now), expected,
                        1e-6 * expected + 1e-6, in, "after ", op);
    TDS_FUZZ_CHECK_DOUBLE_EQ(counter->Query(now), mirror->Query(now), in,
                             "batch/per-item divergence after ", op);
  };

  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 45) {
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value = in.Below(5);
      counter->Update(now, value);
      mirror->Update(now, value);
      if (value > 0) reference.Add(now, value);
      check("Update");
    } else if (kind < 70) {
      std::vector<StreamItem> batch;
      const int len = 1 + static_cast<int>(in.Below(8));
      for (int i = 0; i < len; ++i) {
        now += static_cast<Tick>(in.Below(2));
        batch.push_back(StreamItem{now, in.Below(4)});
      }
      counter->UpdateBatch(batch);
      for (const StreamItem& item : batch) {
        mirror->Update(item.t, item.value);
        if (item.value > 0) reference.Add(item.t, item.value);
      }
      check("UpdateBatch");
    } else if (kind < 85) {
      now += static_cast<Tick>(in.Below(50));
      counter->Advance(now);
      mirror->Advance(now);
      check("Advance");
    } else {
      counter = RoundTrip(*counter, decay, in);
      check("SnapshotRoundTrip");
    }
  }
}

// ---------------------------------------------------------------------------
// CoarseCehDecayedSum: only a constant-factor guarantee (grid quantization
// plus stochastic aging), so the driver audits structure after every op and,
// under polynomial decay, requires the estimate to stay within a generous
// constant factor of the brute-force sum. It also runs a naive coarse CEH
// in lockstep — the textbook EH over approximate ages, aged with its own
// copy of the seeded RNG — and requires exact agreement after every op.
// Sliding-window runs add clock jumps past the horizon, so buckets expire.

/// Textbook coarse CEH over ReferenceEh<ApproxAge>: a merge keeps the
/// younger age; a clock advance ages every bucket in ascending class order,
/// oldest first in a class, drawing from one RNG, then drops the oldest
/// buckets while their age exceeds the horizon; a query weights each bucket
/// by g(its age plus the gap since the last advance).
class NaiveCoarseCeh {
 public:
  NaiveCoarseCeh(DecayPtr decay, const CoarseCehDecayedSum::Options& options)
      : decay_(std::move(decay)),
        delta_(options.boundary_delta),
        rng_(options.seed),
        buckets_(static_cast<uint64_t>(std::ceil(1.0 / options.epsilon)) +
                 1) {}

  void Update(Tick t, uint64_t value) {
    Advance(t);
    buckets_.Insert(value, ApproxAge(delta_),
                    [](const ApproxAge& older, const ApproxAge& newer) {
                      ApproxAge merged = older;
                      merged.TakeYounger(newer);
                      return merged;
                    });
  }

  void Advance(Tick t) {
    const Tick gap = t - now_;
    now_ = t;
    if (gap == 0) return;
    buckets_.ForEachAscendingClass([&](ReferenceEh<ApproxAge>::Bucket& b) {
      b.stamp.Advance(gap, rng_);
    });
    const double horizon = static_cast<double>(decay_->Horizon());
    buckets_.ExpireOldest(
        [horizon](const ApproxAge& age) { return age.Estimate() > horizon; });
  }

  double Query(Tick now) const {
    const double gap = static_cast<double>(now - now_);
    double sum = 0.0;
    buckets_.ForEachAscendingClass(
        [&](const ReferenceEh<ApproxAge>::Bucket& b) {
          const auto age = static_cast<Tick>(
              std::llround(std::max(1.0, b.stamp.Estimate() + gap)));
          if (age > decay_->Horizon()) return;
          sum += static_cast<double>(b.count) * decay_->Weight(age);
        });
    return sum;
  }

  const ReferenceEh<ApproxAge>& buckets() const { return buckets_; }

 private:
  DecayPtr decay_;
  double delta_;
  Rng rng_;
  ReferenceEh<ApproxAge> buckets_;
  Tick now_ = 0;
};

void RunCoarseCehFuzz(bool sliding, double epsilon, uint64_t rng_seed,
                      int max_ops, FuzzInput& in) {
  const Tick window = 256;
  const DecayPtr decay = sliding ? SlidingWindowDecay::Create(window).value()
                                 : PolynomialDecay::Create(1.0).value();
  CoarseCehDecayedSum::Options options;
  options.epsilon = epsilon;
  options.boundary_delta = 0.25;
  options.seed = rng_seed;
  auto coarse = CoarseCehDecayedSum::Create(decay, options).value();
  NaiveCoarseCeh naive(decay, options);
  ExactDecayedReference reference(decay);
  Tick now = 1;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(coarse->AuditInvariants(), in, "after ", op);
    const std::vector<double> ages = coarse->state().BoundaryAges();
    const auto expected = naive.buckets().OldestFirst();
    TDS_FUZZ_CHECK(ages.size() == expected.size() &&
                       coarse->state().BucketCount() == naive.buckets().BucketCount(),
                   in, "bucket count ", ages.size(), " vs reference ",
                   expected.size(), " after ", op);
    for (size_t i = 0; i < ages.size(); ++i) {
      TDS_FUZZ_CHECK(ages[i] == expected[i].stamp.Estimate(), in, "age ", i,
                     " = ", ages[i], " vs reference ",
                     expected[i].stamp.Estimate(), " after ", op);
    }
    TDS_FUZZ_CHECK(coarse->state().TotalCount() == naive.buckets().TotalCount(), in,
                   "total count after ", op);
    const double estimate = coarse->Query(now);
    TDS_FUZZ_CHECK(estimate == naive.Query(now), in, "estimate=", estimate,
                   " vs reference ", naive.Query(now), " after ", op);
    TDS_FUZZ_CHECK(std::isfinite(estimate) && estimate >= 0.0, in,
                   "estimate=", estimate);
    const double expected_sum = reference.Sum(now);
    if (!sliding && expected_sum > 1.0) {
      TDS_FUZZ_CHECK(estimate >= expected_sum / 8.0 &&
                         estimate <= expected_sum * 8.0,
                     in, "estimate=", estimate, " expected=", expected_sum,
                     " after ", op);
    }
  };

  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 6) {
      // A burst of multi-class values over a few ticks: the bucket block
      // grows and gains classes, and later slides over expired buckets.
      const int burst = 4 + static_cast<int>(in.Below(20));
      for (int i = 0; i < burst; ++i) {
        now += static_cast<Tick>(in.Below(2));
        const uint64_t value = (1 + in.Below(8)) << in.Below(10);
        coarse->Update(now, value);
        naive.Update(now, value);
        reference.Add(now, value);
        check("burst Update");
      }
    } else if (kind < 70) {
      // Occasional large values drive the merge cascade many classes deep.
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value =
          in.Below(30) == 0 ? 1 + in.Below(2000) : in.Below(4);
      coarse->Update(now, value);
      naive.Update(now, value);
      if (value > 0) reference.Add(now, value);
      check("Update");
    } else if (kind < 85) {
      // Sliding-window runs sometimes jump past the whole horizon.
      const uint64_t jump = sliding && in.Below(4) == 0 ? 2 * window : 40;
      now += static_cast<Tick>(in.Below(jump));
      coarse->Advance(now);
      naive.Advance(now);
      check("Advance");
    } else {
      coarse = RoundTrip(*coarse, decay, in);
      check("SnapshotRoundTrip");
    }
  }
}

}  // namespace
}  // namespace tds

#ifndef TDS_LIBFUZZER

#include <gtest/gtest.h>

namespace tds {
namespace {

struct ExactCase {
  uint64_t seed;
  bool sliding;  ///< sliding-window (finite horizon) vs polynomial decay
  int ops;
};

class ExactFuzzTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExactFuzzTest, MatchesBruteForceExactly) {
  const ExactCase fuzz = GetParam();
  FuzzInput in = FuzzInput::FromSeed(
      fuzz.seed, static_cast<size_t>(fuzz.ops) * 8);
  RunExactFuzz(fuzz.sliding, fuzz.ops, in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactFuzzTest,
                         ::testing::Values(ExactCase{0xea01, true, 800},
                                           ExactCase{0xea02, false, 800},
                                           ExactCase{0xea03, true, 500}),
                         [](const ::testing::TestParamInfo<ExactCase>& info) {
                           return "Seed" + std::to_string(info.param.seed &
                                                          0xff) +
                                  (info.param.sliding ? "Sliwin" : "Poly");
                         });

struct EwmaCase {
  uint64_t seed;
  int mantissa_bits;  ///< 0 = full doubles
  int ops;
};

class EwmaFuzzTest : public ::testing::TestWithParam<EwmaCase> {};

TEST_P(EwmaFuzzTest, TracksReferenceAndBatchMatchesPerItem) {
  const EwmaCase fuzz = GetParam();
  FuzzInput in = FuzzInput::FromSeed(
      fuzz.seed, static_cast<size_t>(fuzz.ops) * 16);
  RunEwmaFuzz(fuzz.mantissa_bits, fuzz.ops, in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EwmaFuzzTest,
                         ::testing::Values(EwmaCase{0xeb01, 0, 700},
                                           EwmaCase{0xeb02, 16, 700},
                                           EwmaCase{0xeb03, 24, 500}),
                         [](const ::testing::TestParamInfo<EwmaCase>& info) {
                           return "Seed" +
                                  std::to_string(info.param.seed & 0xff) +
                                  "Mantissa" +
                                  std::to_string(info.param.mantissa_bits);
                         });

TEST(RecentItemsFuzzTest, EstimateLowerBoundsReferenceAndAuditsHold) {
  FuzzInput in = FuzzInput::FromSeed(0xec01, 800 * 8);
  RunRecentItemsFuzz(800, in);
}

struct PolyExpCase {
  uint64_t seed;
  int k;
  int ops;
};

class PolyExpFuzzTest : public ::testing::TestWithParam<PolyExpCase> {};

TEST_P(PolyExpFuzzTest, RegistersTrackBruteForce) {
  const PolyExpCase fuzz = GetParam();
  FuzzInput in = FuzzInput::FromSeed(
      fuzz.seed, static_cast<size_t>(fuzz.ops) * 16);
  RunPolyExpFuzz(fuzz.k, fuzz.ops, in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolyExpFuzzTest,
                         ::testing::Values(PolyExpCase{0xed01, 1, 700},
                                           PolyExpCase{0xed02, 2, 700},
                                           PolyExpCase{0xed03, 3, 500}),
                         [](const ::testing::TestParamInfo<PolyExpCase>&
                                info) {
                           return "Seed" +
                                  std::to_string(info.param.seed & 0xff) +
                                  "K" + std::to_string(info.param.k);
                         });

TEST(CoarseCehFuzzTest, ConstantFactorAndAuditsHold) {
  FuzzInput in = FuzzInput::FromSeed(0xee01, 600 * 8);
  RunCoarseCehFuzz(/*sliding=*/false, /*epsilon=*/0.1,
                   CoarseCehDecayedSum::Options{}.seed, 600, in);
}

struct CoarseCase {
  uint64_t seed;
  int ops;
  bool sliding;  ///< sliding-window (expiring) vs polynomial decay
  /// Epsilon 0.01 (cap 101) instead of 0.1. A flag rather than a double,
  /// so the parameter keeps its size and the older cases their names.
  bool wide = false;
};

class CoarseCehFuzzSeedTest : public ::testing::TestWithParam<CoarseCase> {};

TEST_P(CoarseCehFuzzSeedTest, MatchesNaiveReference) {
  const CoarseCase fuzz = GetParam();
  FuzzInput in = FuzzInput::FromSeed(
      fuzz.seed, static_cast<size_t>(fuzz.ops) * 8);
  RunCoarseCehFuzz(fuzz.sliding, fuzz.wide ? 0.01 : 0.1, fuzz.seed, fuzz.ops,
                   in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoarseCehFuzzSeedTest,
                         ::testing::Values(CoarseCase{0xF1B1, 1100, false},
                                           CoarseCase{0xF1B2, 1100, true},
                                           CoarseCase{0xee02, 800, true},
                                           // Wide classes (cap 101).
                                           CoarseCase{0xee03, 800, true, true},
                                           CoarseCase{0xee04, 800, false,
                                                      true}),
                         [](const ::testing::TestParamInfo<CoarseCase>& info) {
                           return "Seed" +
                                  std::to_string(info.param.seed & 0xff) +
                                  (info.param.sliding ? "Sliwin" : "Poly") +
                                  (info.param.wide ? "Wide" : "");
                         });

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point: the first byte dispatches among the Section 3
// counter cores (the coarse CEH twice: polynomial, then sliding-window
// decay), the next bytes pick that core's configuration.
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tds::FuzzInput in(data, size);
  constexpr int kMaxOps = 4096;
  const uint64_t coarse_seed = tds::CoarseCehDecayedSum::Options{}.seed;
  switch (in.Below(6)) {
    case 0:
      tds::RunExactFuzz(in.Below(2) == 0, kMaxOps, in);
      break;
    case 1: {
      constexpr int kMantissa[] = {0, 16, 24};
      tds::RunEwmaFuzz(kMantissa[in.Below(3)], kMaxOps, in);
      break;
    }
    case 2:
      tds::RunRecentItemsFuzz(kMaxOps, in);
      break;
    case 3:
      tds::RunPolyExpFuzz(1 + static_cast<int>(in.Below(3)), kMaxOps, in);
      break;
    case 4:
      tds::RunCoarseCehFuzz(/*sliding=*/false, /*epsilon=*/0.1, coarse_seed,
                            kMaxOps, in);
      break;
    default:
      tds::RunCoarseCehFuzz(/*sliding=*/true, /*epsilon=*/0.1, coarse_seed,
                            kMaxOps, in);
      break;
  }
  return 0;
}

#endif  // TDS_LIBFUZZER
