// Dual-mode fuzz driver for the Cascaded Exponential Histogram:
// interleaves Update / Query / MergeFrom / snapshot round-trips under every
// decay family, auditing invariants and comparing against a brute-force
// decayed sum after each operation. The gtest-free core consumes a
// FuzzInput byte stream: deterministic seed-driven ctest target by default,
// coverage-guided libFuzzer harness under -DTDS_LIBFUZZER.
#include "core/ceh.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "core/snapshot.h"
#include "decay/exponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "fuzz_util.h"
#include "util/codec.h"

namespace tds {
namespace {

enum class DecayKind { kSliwin, kPolyOne, kPolyTwo, kExpd };

DecayPtr MakeDecay(DecayKind kind) {
  switch (kind) {
    case DecayKind::kSliwin:
      return SlidingWindowDecay::Create(96).value();
    case DecayKind::kPolyOne:
      return PolynomialDecay::Create(1.0).value();
    case DecayKind::kPolyTwo:
      return PolynomialDecay::Create(2.0).value();
    case DecayKind::kExpd:
      return ExponentialDecay::Create(0.05).value();
  }
  return nullptr;
}

/// Brute-force decayed sum: every item, weighted directly by the decay.
class ExactDecayedReference {
 public:
  explicit ExactDecayedReference(DecayPtr decay) : decay_(std::move(decay)) {}

  void Add(Tick t, uint64_t value) { items_.emplace_back(t, value); }

  void MergeFrom(const ExactDecayedReference& other) {
    for (const auto& item : other.items_) items_.push_back(item);
  }

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

struct CehFuzzConfig {
  DecayKind decay;
  double epsilon;
  double envelope;  ///< Base relative envelope (pre-merge).
  int max_ops;
  /// Start just below tick 2^32 and let quiet periods jump 2^32 ticks or
  /// more: under an infinite horizon the histogram's live stamps then span
  /// past 32 bits and its bucket block widens.
  bool far = false;
};

std::unique_ptr<CehDecayedSum> MakeCeh(DecayKind kind, double epsilon,
                                       const FuzzInput& in) {
  CehDecayedSum::Options options;
  options.epsilon = epsilon;
  auto ceh = CehDecayedSum::Create(MakeDecay(kind), options);
  TDS_FUZZ_CHECK(ceh.ok(), in, "Create: ", ceh.status().ToString());
  return std::move(ceh).value();
}

void RunCehFuzz(const CehFuzzConfig& config, FuzzInput& in) {
  const DecayPtr decay = MakeDecay(config.decay);
  std::unique_ptr<CehDecayedSum> ceh =
      MakeCeh(config.decay, config.epsilon, in);
  ExactDecayedReference exact(decay);
  Tick now = config.far ? (Tick{1} << 32) - 64 : 1;
  int merges = 0;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(ceh->AuditInvariants(), in, "after ", op);
    const double reference = exact.Sum(now);
    const double envelope = config.envelope + merges * config.epsilon;
    TDS_FUZZ_CHECK_NEAR(ceh->Query(now), reference,
                        envelope * reference + 0.5 + merges, in,
                        "after ", op);
  };

  for (int op = 0; op < config.max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 60) {
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value =
          in.Below(25) == 0 ? 1 + in.Below(1000) : in.Below(4);
      ceh->Update(now, value);
      exact.Add(now, value);
      check("Update");
    } else if (kind < 75) {
      // Quiet period: queries alone advance the clock and expire state.
      if (config.far && in.Below(4) == 0) {
        now += (Tick{1} << 32) + static_cast<Tick>(in.Below(uint64_t{1} << 33));
      } else {
        now += static_cast<Tick>(in.Below(150));
      }
      check("Advance");
    } else if (kind < 85) {
      // Full snapshot round-trip through the typed codec; continue on the
      // restored instance.
      TDS_FUZZ_CHECK_OK(AuditSnapshotRoundTrip(*ceh), in,
                        "AuditSnapshotRoundTrip");
      std::string blob;
      TDS_FUZZ_CHECK_OK(EncodeDecayedSum(*ceh, &blob), in, "Encode");
      auto restored = DecodeDecayedSum(decay, blob);
      TDS_FUZZ_CHECK(restored.ok(), in,
                     "Decode: ", restored.status().ToString());
      auto* typed = dynamic_cast<CehDecayedSum*>(restored->get());
      TDS_FUZZ_CHECK(typed != nullptr, in, "decoded type is not CEH");
      restored->release();
      ceh.reset(typed);
      check("SnapshotRoundTrip");
    } else if (kind < 92 && merges < 3) {
      std::unique_ptr<CehDecayedSum> other =
          MakeCeh(config.decay, config.epsilon, in);
      ExactDecayedReference other_exact(decay);
      Tick other_now =
          std::max<Tick>(1, now - static_cast<Tick>(in.Below(30)));
      const int burst = 1 + static_cast<int>(in.Below(50));
      for (int i = 0; i < burst; ++i) {
        other_now += static_cast<Tick>(in.Below(2));
        const uint64_t value = 1 + in.Below(3);
        other->Update(other_now, value);
        other_exact.Add(other_now, value);
      }
      now = std::max(now, other_now);
      TDS_FUZZ_CHECK_OK(MergeFrom(*ceh, *other), in, "MergeFrom");
      exact.MergeFrom(other_exact);
      ++merges;
      check("MergeFrom");
    } else {
      // Repeated queries at one tick must be stable (memoization path).
      const double first = ceh->Query(now);
      TDS_FUZZ_CHECK_DOUBLE_EQ(ceh->Query(now), first, in,
                               "repeated query drifted");
      check("RepeatedQuery");
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
  DecayKind decay;
  double epsilon;
  double envelope;
  int ops;
  bool far = false;
};

class CehFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CehFuzzTest, InterleavedOpsKeepInvariantsAndAccuracy) {
  const FuzzCase fuzz = GetParam();
  FuzzInput in = FuzzInput::FromSeed(
      fuzz.seed, static_cast<size_t>(fuzz.ops) * 16);
  RunCehFuzz({fuzz.decay, fuzz.epsilon, fuzz.envelope, fuzz.ops, fuzz.far},
             in);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CehFuzzTest,
    ::testing::Values(
        FuzzCase{0xce01, DecayKind::kSliwin, 0.1, 0.11, 900},
        FuzzCase{0xce02, DecayKind::kPolyOne, 0.1, 0.3, 900},
        FuzzCase{0xce03, DecayKind::kPolyTwo, 0.1, 0.3, 700},
        FuzzCase{0xce04, DecayKind::kExpd, 0.1, 0.3, 700},
        FuzzCase{0xce05, DecayKind::kPolyOne, 0.02, 0.06, 600},
        // Wide classes (cap 101): bucket blocks of hundreds of stamps.
        FuzzCase{0xce06, DecayKind::kSliwin, 0.01, 0.015, 600},
        // Infinite horizons past 32 bits of ticks: widened bucket blocks.
        FuzzCase{0xce07, DecayKind::kPolyOne, 0.1, 0.3, 900, true},
        FuzzCase{0xce08, DecayKind::kPolyTwo, 0.1, 0.3, 700, true},
        FuzzCase{0xce09, DecayKind::kPolyOne, 0.02, 0.06, 600, true}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "Seed" + std::to_string(info.param.seed & 0xff) + "Decay" +
             std::to_string(static_cast<int>(info.param.decay)) + "Eps" +
             std::to_string(static_cast<int>(info.param.epsilon * 100)) +
             (info.param.far ? "Far" : "");
    });

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point: leading bytes pick decay family + epsilon
// (with the matching hand-calibrated envelope), the rest drive the ops.
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tds::FuzzInput in(data, size);
  const auto decay = static_cast<tds::DecayKind>(in.Below(4));
  const bool tight = in.Below(4) == 0;
  tds::CehFuzzConfig config;
  config.decay = decay;
  config.epsilon = tight ? 0.02 : 0.1;
  // The sliding-window envelope is tighter than the smooth-decay families
  // (same calibration as the ctest seed list).
  config.envelope = decay == tds::DecayKind::kSliwin
                        ? (tight ? 0.03 : 0.11)
                        : (tight ? 0.06 : 0.3);
  config.max_ops = 4096;
  tds::RunCehFuzz(config, in);
  return 0;
}

#endif  // TDS_LIBFUZZER
