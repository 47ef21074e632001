// Dual-mode fuzz driver for the Weight-Based Merging Histogram:
// interleaves Update / Query / quiet gaps / snapshot round-trips on an
// owned-layout instance, and separately drives two counters over one shared
// layout with periodic log trimming — the deployment shape the layout's op
// log exists for. Audits layout + counter invariants after every operation.
// Gtest-free FuzzInput cores run both as the deterministic ctest target and
// as a libFuzzer harness under -DTDS_LIBFUZZER.
#include "core/wbmh.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "core/snapshot.h"
#include "decay/polynomial.h"
#include "fuzz_util.h"
#include "histogram/wbmh_state.h"

namespace tds {
namespace {

/// Brute-force decayed sum under `decay` (shared with the CEH driver in
/// spirit, duplicated to stay self-contained per target).
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

struct WbmhFuzzConfig {
  double alpha;     ///< Polynomial decay exponent.
  double epsilon;
  double envelope;  ///< Relative error budget for Query vs exact.
  int max_ops;
};

void RunWbmhFuzz(const WbmhFuzzConfig& config, FuzzInput& in) {
  const DecayPtr decay = PolynomialDecay::Create(config.alpha).value();

  WbmhDecayedSum::Options options;
  options.epsilon = config.epsilon;
  auto created = WbmhDecayedSum::Create(decay, options);
  TDS_FUZZ_CHECK(created.ok(), in, "Create: ", created.status().ToString());
  std::unique_ptr<WbmhDecayedSum> wbmh = std::move(created).value();

  ExactDecayedReference exact(decay);
  Tick now = 1;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(wbmh->AuditInvariants(), in, "after ", op);
    const double reference = exact.Sum(now);
    TDS_FUZZ_CHECK_NEAR(wbmh->Query(now), reference,
                        config.envelope * reference + 0.5, in, "after ", op);
  };

  for (int op = 0; op < config.max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 65) {
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value =
          in.Below(25) == 0 ? 1 + in.Below(500) : in.Below(4);
      wbmh->Update(now, value);
      exact.Add(now, value);
      check("Update");
    } else if (kind < 82) {
      // Quiet gap: forces seal/merge/drop event processing in one burst.
      now += static_cast<Tick>(in.Below(200));
      check("Gap");
    } else if (kind < 90) {
      // Snapshot round-trip (owned layout); continue on the restored copy.
      TDS_FUZZ_CHECK_OK(AuditSnapshotRoundTrip(*wbmh), in,
                        "AuditSnapshotRoundTrip");
      std::string blob;
      TDS_FUZZ_CHECK_OK(EncodeDecayedSum(*wbmh, &blob), in, "Encode");
      auto restored = DecodeDecayedSum(decay, blob);
      TDS_FUZZ_CHECK(restored.ok(), in,
                     "Decode: ", restored.status().ToString());
      auto* typed = dynamic_cast<WbmhDecayedSum*>(restored->get());
      TDS_FUZZ_CHECK(typed != nullptr, in, "decoded type is not WBMH");
      restored->release();
      wbmh.reset(typed);
      check("SnapshotRoundTrip");
    } else {
      // Repeated queries at a fixed tick must agree.
      const double first = wbmh->Query(now);
      TDS_FUZZ_CHECK_DOUBLE_EQ(wbmh->Query(now), first, in,
                               "repeated query drifted");
      check("RepeatedQuery");
    }
  }
}

// Two counters over one shared layout, with periodic op-log trimming at the
// slower counter's applied sequence — exercises the replay protocol that the
// single-stream wrapper never stresses.
void RunWbmhSharedLayoutFuzz(int max_ops, FuzzInput& in) {
  const DecayPtr decay = PolynomialDecay::Create(1.5).value();

  WbmhLayout::Options layout_options;
  layout_options.decay = decay;
  layout_options.epsilon = 0.2;
  layout_options.start = 1;
  auto layout_or = WbmhLayout::Create(layout_options);
  TDS_FUZZ_CHECK(layout_or.ok(), in,
                 "layout Create: ", layout_or.status().ToString());
  auto layout = std::make_shared<WbmhLayout>(std::move(layout_or).value());

  const WbmhParams params(layout.get(), 0.2);
  WbmhState a(params);
  WbmhState b(params);

  ExactDecayedReference exact_a(decay);
  ExactDecayedReference exact_b(decay);
  Tick now = 1;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(layout->AuditInvariants(), in, "layout after ", op);
    TDS_FUZZ_CHECK_OK(a.AuditInvariants(params), in, "a after ", op);
    TDS_FUZZ_CHECK_OK(b.AuditInvariants(params), in, "b after ", op);
    TDS_FUZZ_CHECK_NEAR(a.Query(params, now), exact_a.Sum(now),
                        0.5 * exact_a.Sum(now) + 0.5, in, "a after ", op);
    TDS_FUZZ_CHECK_NEAR(b.Query(params, now), exact_b.Sum(now),
                        0.5 * exact_b.Sum(now) + 0.5, in, "b after ", op);
  };

  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 45) {
      now += static_cast<Tick>(in.Below(2));
      const uint64_t value = 1 + in.Below(3);
      a.Update(params, now, value);
      exact_a.Add(now, value);
      check("UpdateA");
    } else if (kind < 80) {
      // Stream B is burstier: it falls behind on replay between bursts,
      // leaving real work for the shared-log catch-up path.
      now += static_cast<Tick>(in.Below(40));
      const uint64_t value = 1 + in.Below(10);
      b.Update(params, now, value);
      exact_b.Add(now, value);
      check("UpdateB");
    } else if (kind < 92) {
      now += static_cast<Tick>(in.Below(120));
      check("Gap");
    } else {
      // Queries replay the pending ops on a copy and apply nothing, so
      // only the ops both counters have applied may be discarded.
      (void)a.Query(params, now);
      (void)b.Query(params, now);
      layout->TrimLog(std::min(a.AppliedSeq(), b.AppliedSeq()));
      check("TrimLog");
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
  double alpha;
  double epsilon;
  double envelope;
  int ops;
};

class WbmhFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(WbmhFuzzTest, InterleavedOpsKeepInvariantsAndAccuracy) {
  const FuzzCase fuzz = GetParam();
  FuzzInput in = FuzzInput::FromSeed(
      fuzz.seed, static_cast<size_t>(fuzz.ops) * 16);
  RunWbmhFuzz({fuzz.alpha, fuzz.epsilon, fuzz.envelope, fuzz.ops}, in);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, WbmhFuzzTest,
    ::testing::Values(FuzzCase{0x3b01, 1.0, 0.2, 0.5, 900},
                      FuzzCase{0x3b02, 2.0, 0.2, 0.5, 900},
                      FuzzCase{0x3b03, 1.0, 0.05, 0.15, 600},
                      FuzzCase{0x3b04, 0.5, 0.5, 1.0, 900}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "Seed" + std::to_string(info.param.seed & 0xff) + "Alpha" +
             std::to_string(static_cast<int>(info.param.alpha * 10)) +
             "Eps" + std::to_string(static_cast<int>(info.param.epsilon * 100));
    });

TEST(WbmhSharedLayoutFuzzTest, TwoCountersOneLayoutWithTrimming) {
  FuzzInput in = FuzzInput::FromSeed(0x3bff, 900 * 16);
  RunWbmhSharedLayoutFuzz(900, in);
}

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point: the first byte picks the sub-driver (shared
// layout vs owned), the next bytes pick decay exponent + epsilon.
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tds::FuzzInput in(data, size);
  if (in.Below(4) == 0) {
    tds::RunWbmhSharedLayoutFuzz(4096, in);
    return 0;
  }
  constexpr double kAlphas[] = {0.5, 1.0, 2.0};
  const bool tight = in.Below(4) == 0;
  tds::WbmhFuzzConfig config;
  config.alpha = kAlphas[in.Below(3)];
  config.epsilon = tight ? 0.05 : 0.2;
  config.envelope = tight ? 0.15 : (config.alpha < 1.0 ? 1.0 : 0.5);
  config.max_ops = 4096;
  tds::RunWbmhFuzz(config, in);
  return 0;
}

#endif  // TDS_LIBFUZZER
