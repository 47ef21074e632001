// Dual-mode fuzz driver for AggregateRegistry (docs/CORRECTNESS.md
// conventions): byte-stream-driven interleavings of single updates, batches,
// advances, queries, snapshot round-trips and structural copies, checked
// after every phase against a per-key map of standalone aggregates fed the
// identical item sequence — plus structural audits. With expiry disabled
// the registry adds bookkeeping but never arithmetic, so every per-key
// answer must match bit-for-bit; a second driver re-enables expiry and
// checks estimates against exact window counts instead (an
// evicted-then-recreated key rebuilds its histogram, which is within the
// accuracy bound but not bit-identical to an uninterrupted one). A third
// driver keeps expiry on for the other backends over a finite horizon and
// mirrors each eviction in the per-key reference, so there every answer
// must match bit-for-bit again.
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/registry.h"
#include "fuzz_util.h"
#include "util/common.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr uint64_t kKeySpace = 24;

struct Reference {
  DecayPtr decay;
  AggregateOptions options;
  std::unordered_map<uint64_t, std::unique_ptr<DecayedAggregate>> keys;

  void Update(uint64_t key, Tick t, uint64_t value) {
    auto it = keys.find(key);
    if (it == keys.end()) {
      it = keys.emplace(key, MakeDecayedSum(decay, options).value()).first;
    }
    it->second->Update(t, value);
  }

  void Advance(Tick now) {
    for (auto& [key, aggregate] : keys) aggregate->Advance(now);
  }

  double Query(uint64_t key, Tick now) const {
    const auto it = keys.find(key);
    return it == keys.end() ? 0.0 : it->second->Query(now);
  }
};

/// The structural copy agrees with the codec: it encodes to `blob` (the
/// source's own encoding) and answers like the source. Draws no input, so
/// the corpora replay unchanged.
void CheckCopyMatchesCodec(AggregateRegistry& registry, const std::string& blob,
                           Tick t, int op, FuzzInput& in) {
  auto copy = registry.Copy();
  TDS_FUZZ_CHECK(copy.ok(), in, "op=", op, ": ", copy.status().ToString());
  std::string copied;
  TDS_FUZZ_CHECK_OK(copy->EncodeState(&copied), in, "copy encode");
  TDS_FUZZ_CHECK(copied == blob, in, "copy diverged from the codec, op=", op);
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    TDS_FUZZ_CHECK_DOUBLE_EQ(copy->Query(key, t), registry.Query(key, t), in,
                             "copy key=", key);
  }
}

/// Fresh keys of the burst configuration start here, clear of the probed
/// key space (kKeySpace + 4).
constexpr uint64_t kFreshKeyBase = 1000;

/// The key table's slot count after `keys` sequential inserts into an
/// empty registry (initially 64 slots, doubled when an insert would bring
/// the load to 70%; without evictions there are no tombstones).
size_t TableSlotsAfter(size_t keys) {
  size_t slots = 64;
  for (size_t live = 0; live < keys; ++live) {
    if ((live + 1) * 10 >= slots * 7) slots *= 2;
  }
  return slots;
}

/// With `fresh_bursts`, a quarter of the batch ops is instead one tick
/// segment of 40..199 fresh keys with repeats mixed in, so the registry's
/// key table doubles in the middle of a segment's resolve pass; such
/// bursts are counted in `*rehashing_bursts`. Without it the driver draws
/// exactly the input it always drew.
void RunRegistryNoEvictionFuzz(const DecayPtr& decay, Backend backend,
                               int max_ops, FuzzInput& in,
                               bool fresh_bursts = false,
                               int* rehashing_bursts = nullptr) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(backend)
                          .epsilon(0.15)
                          .Build()
                          .value();
  // The reference never evicts, so the registry must not either:
  // a negative floor turns expiry off even for finite horizons.
  options.expiry_weight_floor = -1.0;
  auto registry = AggregateRegistry::Create(decay, options);
  TDS_FUZZ_CHECK(registry.ok(), in, registry.status().ToString());
  Reference reference{decay, options.aggregate, {}};

  Tick t = 1;
  uint64_t fresh_keys = 0;
  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t roll = in.Below(100);
    if (roll < 55) {
      t += static_cast<Tick>(in.Below(3));
      const uint64_t key = in.Below(kKeySpace);
      const uint64_t value = in.Below(5);
      registry->Update(key, t, value);
      reference.Update(key, t, value);
    } else if (roll < 80 && fresh_bursts && in.Below(4) == 0) {
      // One segment: every item at tick t, fresh keys interleaved with
      // repeats of this burst's keys and of the common key space.
      std::vector<KeyedItem> burst;
      const uint64_t first_fresh = kFreshKeyBase + fresh_keys;
      const size_t size = 40 + in.Below(160);
      for (size_t i = 0; i < size; ++i) {
        burst.push_back(
            KeyedItem{kFreshKeyBase + fresh_keys++, t, in.Below(5)});
        if (in.Below(3) == 0) {
          const uint64_t key =
              in.Below(2) == 0
                  ? first_fresh + in.Below(kFreshKeyBase + fresh_keys -
                                           first_fresh)
                  : in.Below(kKeySpace);
          burst.push_back(KeyedItem{key, t, in.Below(5)});
        }
      }
      const size_t slots_before = TableSlotsAfter(registry->KeyCount());
      registry->UpdateBatch(burst);
      for (const KeyedItem& item : burst) {
        reference.Update(item.key, item.t, item.value);
      }
      if (rehashing_bursts != nullptr &&
          TableSlotsAfter(registry->KeyCount()) != slots_before) {
        ++*rehashing_bursts;
      }
    } else if (roll < 80) {
      std::vector<KeyedItem> batch;
      const size_t size = in.Below(40);
      for (size_t i = 0; i < size; ++i) {
        if (in.Below(3) == 0) t += static_cast<Tick>(in.Below(2));
        batch.push_back(KeyedItem{in.Below(kKeySpace), t, in.Below(5)});
      }
      registry->UpdateBatch(batch);
      for (const KeyedItem& item : batch) {
        reference.Update(item.key, item.t, item.value);
      }
    } else if (roll < 88) {
      t += static_cast<Tick>(in.Below(30));
      registry->Advance(t);
      reference.Advance(t);
    } else if (roll < 96) {
      // Align clocks first: the registry's shared WBMH layout advances
      // whenever ANY key ingests, so an idle key's structure can be
      // further merged than its standalone reference (both correct, but
      // bit-equality needs both structures at the same tick).
      registry->Advance(t);
      reference.Advance(t);
      for (int probe = 0; probe < 3; ++probe) {
        const uint64_t key = in.Below(kKeySpace + 4);  // some absent
        TDS_FUZZ_CHECK_DOUBLE_EQ(registry->Query(key, t),
                                 reference.Query(key, t), in,
                                 "op=", op, " key=", key);
      }
      for (int probe = 0; fresh_keys != 0 && probe < 3; ++probe) {
        const uint64_t key = kFreshKeyBase + in.Below(fresh_keys);
        TDS_FUZZ_CHECK_DOUBLE_EQ(registry->Query(key, t),
                                 reference.Query(key, t), in,
                                 "op=", op, " fresh key=", key);
      }
    } else {
      std::string blob;
      TDS_FUZZ_CHECK_OK(registry->EncodeState(&blob), in, "EncodeState");
      auto decoded = AggregateRegistry::Decode(decay, options, blob);
      TDS_FUZZ_CHECK(decoded.ok(), in,
                     "op=", op, ": ", decoded.status().ToString());
      std::string reencoded;
      TDS_FUZZ_CHECK_OK(decoded->EncodeState(&reencoded), in, "re-encode");
      TDS_FUZZ_CHECK(blob == reencoded, in,
                     "snapshot not self-inverse, op=", op);
      for (uint64_t key = 0; key < kKeySpace; ++key) {
        TDS_FUZZ_CHECK_DOUBLE_EQ(decoded->Query(key, t),
                                 registry->Query(key, t), in, "key=", key);
      }
      CheckCopyMatchesCodec(*registry, blob, t, op, in);
    }
    if (op % 25 == 0) {
      TDS_FUZZ_CHECK_OK(registry->AuditInvariants(), in, "op=", op);
    }
    TDS_FUZZ_CHECK(registry->KeyCount() == reference.keys.size(), in,
                   "op=", op, " registry=", registry->KeyCount(),
                   " reference=", reference.keys.size());
  }
  TDS_FUZZ_CHECK_OK(registry->AuditInvariants(), in, "final");
}

// With expiry enabled (the default), evicted keys may be recreated with a
// fresh histogram, so exact structural comparison no longer applies; instead
// every answer must stay within the CEH accuracy band of the exact window
// count (half the straddling bucket, i.e. O(epsilon) relative plus a
// granularity term), and structure + snapshot invariants must keep holding.
// Returns the number of eviction passes observed, so the deterministic
// wrapper can assert the machinery was actually exercised across its seeds.
int RunRegistryEvictionFuzz(int max_ops, FuzzInput& in) {
  constexpr Tick kWindow = 96;
  const DecayPtr decay = SlidingWindowDecay::Create(kWindow).value();
  int evictions_observed = 0;
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(Backend::kCeh)
                          .epsilon(0.15)
                          .Build()
                          .value();
  auto registry = AggregateRegistry::Create(decay, options);
  TDS_FUZZ_CHECK(registry.ok(), in, registry.status().ToString());
  TDS_FUZZ_CHECK(registry->expiry_age() == kWindow, in, "expiry_age");

  // Exact truth: every item ever ingested, summed over the live window.
  std::unordered_map<uint64_t, std::vector<std::pair<Tick, uint64_t>>> items;
  auto truth = [&](uint64_t key, Tick now) {
    double sum = 0.0;
    const auto it = items.find(key);
    if (it == items.end()) return sum;
    for (const auto& [arrival, value] : it->second) {
      if (AgeAt(arrival, now) <= kWindow) sum += static_cast<double>(value);
    }
    return sum;
  };
  auto check_key = [&](uint64_t key, Tick now, int op) {
    const double expect = truth(key, now);
    const double got = registry->Query(key, now);
    TDS_FUZZ_CHECK_NEAR(got, expect, 0.2 * expect + 1.0, in,
                        "op=", op, " key=", key);
  };

  Tick t = 1;
  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t roll = in.Below(100);
    if (roll < 45) {
      t += static_cast<Tick>(in.Below(4));
      const uint64_t key = in.Below(kKeySpace);
      const uint64_t value = in.Below(5);
      registry->Update(key, t, value);
      items[key].emplace_back(t, value);
    } else if (roll < 70) {
      std::vector<KeyedItem> batch;
      const size_t size = in.Below(40);
      for (size_t i = 0; i < size; ++i) {
        if (in.Below(3) == 0) t += static_cast<Tick>(in.Below(2));
        batch.push_back(KeyedItem{in.Below(kKeySpace), t, in.Below(5)});
      }
      registry->UpdateBatch(batch);
      for (const KeyedItem& item : batch) {
        items[item.key].emplace_back(item.t, item.value);
      }
    } else if (roll < 85) {
      // Long advances push whole keys past the horizon and trigger the
      // full eviction pass.
      t += static_cast<Tick>(in.Below(2) ? in.Below(150) : in.Below(20));
      registry->Advance(t);
      if (registry->KeyCount() < items.size()) ++evictions_observed;
    } else if (roll < 95) {
      for (int probe = 0; probe < 3; ++probe) {
        check_key(in.Below(kKeySpace + 4), t, op);
      }
    } else {
      std::string blob;
      TDS_FUZZ_CHECK_OK(registry->EncodeState(&blob), in, "EncodeState");
      auto decoded = AggregateRegistry::Decode(decay, options, blob);
      TDS_FUZZ_CHECK(decoded.ok(), in,
                     "op=", op, ": ", decoded.status().ToString());
      std::string reencoded;
      TDS_FUZZ_CHECK_OK(decoded->EncodeState(&reencoded), in, "re-encode");
      TDS_FUZZ_CHECK(blob == reencoded, in,
                     "snapshot not self-inverse, op=", op);
      for (uint64_t key = 0; key < kKeySpace; ++key) {
        TDS_FUZZ_CHECK_DOUBLE_EQ(decoded->Query(key, t),
                                 registry->Query(key, t), in, "key=", key);
      }
      CheckCopyMatchesCodec(*registry, blob, t, op, in);
    }
    if (op % 25 == 0) {
      TDS_FUZZ_CHECK_OK(registry->AuditInvariants(), in, "op=", op);
    }
    TDS_FUZZ_CHECK(registry->KeyCount() <= items.size(), in, "op=", op);
  }
  TDS_FUZZ_CHECK_OK(registry->AuditInvariants(), in, "final");
  return evictions_observed;
}

// Expiry on, over a decay with a finite horizon: the registry evicts keys
// whose newest item is past the horizon, and the reference drops the same
// keys (an evicted-then-recreated key starts from scratch on both sides),
// so every answer must match bit-for-bit. Each eviction must also be due:
// the key's newest item is older than the expiry age. Returns the number
// of evictions observed.
int RunRegistryEvictionReferenceFuzz(const DecayPtr& decay, Backend backend,
                                     int max_ops, FuzzInput& in) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(backend)
                          .epsilon(0.15)
                          .Build()
                          .value();
  auto registry = AggregateRegistry::Create(decay, options);
  TDS_FUZZ_CHECK(registry.ok(), in, registry.status().ToString());
  TDS_FUZZ_CHECK(registry->expiry_age() == decay->Horizon(), in,
                 "expiry_age");
  Reference reference{decay, options.aggregate, {}};
  std::unordered_map<uint64_t, Tick> newest;
  int evictions_observed = 0;
  auto mirror_evictions = [&](Tick now, int op) {
    for (auto it = reference.keys.begin(); it != reference.keys.end();) {
      if (registry->Contains(it->first)) {
        ++it;
        continue;
      }
      TDS_FUZZ_CHECK(AgeAt(newest[it->first], now) > registry->expiry_age(),
                     in, "op=", op, " evicted live key=", it->first);
      ++evictions_observed;
      it = reference.keys.erase(it);
    }
  };

  Tick t = 1;
  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t roll = in.Below(100);
    if (roll < 45) {
      t += static_cast<Tick>(in.Below(4));
      const uint64_t key = in.Below(kKeySpace);
      const uint64_t value = in.Below(5);
      registry->Update(key, t, value);
      reference.Update(key, t, value);
      newest[key] = t;
    } else if (roll < 70) {
      std::vector<KeyedItem> batch;
      const size_t size = in.Below(40);
      for (size_t i = 0; i < size; ++i) {
        if (in.Below(3) == 0) t += static_cast<Tick>(in.Below(2));
        batch.push_back(KeyedItem{in.Below(kKeySpace), t, in.Below(5)});
      }
      registry->UpdateBatch(batch);
      for (const KeyedItem& item : batch) {
        reference.Update(item.key, item.t, item.value);
        newest[item.key] = item.t;
      }
    } else if (roll < 85) {
      // Long advances push whole keys past the horizon and trigger the
      // full eviction pass.
      t += static_cast<Tick>(in.Below(2) ? in.Below(150) : in.Below(20));
      registry->Advance(t);
      reference.Advance(t);
    } else if (roll < 95) {
      // Align clocks first, as in the no-eviction driver.
      registry->Advance(t);
      reference.Advance(t);
      mirror_evictions(t, op);
      for (int probe = 0; probe < 3; ++probe) {
        const uint64_t key = in.Below(kKeySpace + 4);  // some absent
        TDS_FUZZ_CHECK_DOUBLE_EQ(registry->Query(key, t),
                                 reference.Query(key, t), in,
                                 "op=", op, " key=", key);
      }
    } else {
      std::string blob;
      TDS_FUZZ_CHECK_OK(registry->EncodeState(&blob), in, "EncodeState");
      auto decoded = AggregateRegistry::Decode(decay, options, blob);
      TDS_FUZZ_CHECK(decoded.ok(), in,
                     "op=", op, ": ", decoded.status().ToString());
      std::string reencoded;
      TDS_FUZZ_CHECK_OK(decoded->EncodeState(&reencoded), in, "re-encode");
      TDS_FUZZ_CHECK(blob == reencoded, in,
                     "snapshot not self-inverse, op=", op);
      CheckCopyMatchesCodec(*registry, blob, t, op, in);
    }
    mirror_evictions(t, op);
    if (op % 25 == 0) {
      TDS_FUZZ_CHECK_OK(registry->AuditInvariants(), in, "op=", op);
    }
    TDS_FUZZ_CHECK(registry->KeyCount() == reference.keys.size(), in,
                   "op=", op, " registry=", registry->KeyCount(),
                   " reference=", reference.keys.size());
  }
  TDS_FUZZ_CHECK_OK(registry->AuditInvariants(), in, "final");
  return evictions_observed;
}

struct BackendConfig {
  DecayPtr decay;
  Backend backend;
};

/// The backends the first two drivers leave out, each on a decay it
/// serves; the finite-horizon ones also run the eviction-reference driver.
std::vector<BackendConfig> OtherBackends() {
  return {
      {SlidingWindowDecay::Create(96).value(), Backend::kCoarseCeh},
      {ExponentialDecay::Create(0.05).value(), Backend::kEwma},
      {PolyExponentialDecay::Create(2, 0.1).value(), Backend::kPolyExp},
      {SlidingWindowDecay::Create(96).value(), Backend::kExact},
      {ExponentialDecay::Create(0.05).value(), Backend::kRecentItems},
  };
}

}  // namespace
}  // namespace tds

#ifndef TDS_LIBFUZZER

#include <gtest/gtest.h>

namespace tds {
namespace {

TEST(RegistryFuzzTest, MatchesPerKeyReferenceUnderFuzzedInterleavings) {
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {SlidingWindowDecay::Create(96).value(), Backend::kCeh},
      {PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
  };
  for (const Config& config : configs) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed);
      FuzzInput in = FuzzInput::FromSeed(
          seed * 1009 + static_cast<uint64_t>(config.backend), 350 * 48);
      RunRegistryNoEvictionFuzz(config.decay, config.backend, 350, in);
    }
  }
}

TEST(RegistryFuzzTest, EveryBackendMatchesPerKeyReference) {
  for (const BackendConfig& config : OtherBackends()) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "backend=" << static_cast<int>(config.backend)
                   << " seed=" << seed);
      FuzzInput in = FuzzInput::FromSeed(
          seed * 1009 + static_cast<uint64_t>(config.backend), 350 * 48);
      RunRegistryNoEvictionFuzz(config.decay, config.backend, 350, in);
    }
  }
}

// Bursts of fresh keys inside one tick segment double the key table in the
// middle of the batch ingest's resolve pass, for every backend; the entry
// handles resolve already stored must survive it, so every answer still
// matches the per-key reference bit for bit.
TEST(RegistryFuzzTest, FreshKeyBurstsRehashMidResolve) {
  std::vector<BackendConfig> configs = {
      {SlidingWindowDecay::Create(96).value(), Backend::kCeh},
      {PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
  };
  for (BackendConfig& config : OtherBackends()) configs.push_back(config);
  for (const BackendConfig& config : configs) {
    int rehashing_bursts = 0;
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "backend=" << static_cast<int>(config.backend)
                   << " seed=" << seed);
      FuzzInput in = FuzzInput::FromSeed(
          seed * 0x4e5b + static_cast<uint64_t>(config.backend), 200 * 48);
      RunRegistryNoEvictionFuzz(config.decay, config.backend, 200, in,
                                /*fresh_bursts=*/true, &rehashing_bursts);
    }
    EXPECT_GT(rehashing_bursts, 0)
        << "backend=" << static_cast<int>(config.backend);
  }
}

TEST(RegistryFuzzTest, EveryHorizonBackendEvictsLikeItsReference) {
  for (const BackendConfig& config : OtherBackends()) {
    if (config.decay->Horizon() == kInfiniteHorizon) continue;
    int evictions_observed = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "backend=" << static_cast<int>(config.backend)
                   << " seed=" << seed);
      FuzzInput in = FuzzInput::FromSeed(
          seed * 7177 + static_cast<uint64_t>(config.backend), 350 * 48);
      evictions_observed += RunRegistryEvictionReferenceFuzz(
          config.decay, config.backend, 350, in);
    }
    EXPECT_GT(evictions_observed, 0)
        << "backend=" << static_cast<int>(config.backend);
  }
}

TEST(RegistryFuzzTest, EvictionUnderFuzzStaysWithinWindowBounds) {
  int evictions_observed = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    FuzzInput in = FuzzInput::FromSeed(seed * 7177, 350 * 48);
    evictions_observed += RunRegistryEvictionFuzz(350, in);
  }
  // The long advances must actually have reclaimed idle keys somewhere
  // across the seeds, or this test is not exercising eviction at all.
  EXPECT_GT(evictions_observed, 0);
}

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point: first bytes pick the sub-driver and the
// (decay, backend) pairing (3: one of the other backends), the rest drive
// the op stream. (Eviction counts
// are coverage bookkeeping for the deterministic wrapper, not an invariant
// arbitrary byte streams could promise.)
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tds::FuzzInput in(data, size);
  constexpr int kMaxOps = 2048;
  const uint64_t which = in.Below(4);
  if (which == 0) {
    (void)tds::RunRegistryEvictionFuzz(kMaxOps, in);
  } else if (which == 1) {
    tds::RunRegistryNoEvictionFuzz(
        tds::PolynomialDecay::Create(1.0).value(), tds::Backend::kWbmh,
        kMaxOps, in);
  } else if (which == 2) {
    tds::RunRegistryNoEvictionFuzz(
        tds::SlidingWindowDecay::Create(96).value(), tds::Backend::kCeh,
        kMaxOps, in);
  } else {
    const auto configs = tds::OtherBackends();
    const tds::BackendConfig& config = configs[in.Below(configs.size())];
    if (config.decay->Horizon() != tds::kInfiniteHorizon && in.Below(2) == 0) {
      (void)tds::RunRegistryEvictionReferenceFuzz(config.decay, config.backend,
                                                  kMaxOps, in);
    } else {
      tds::RunRegistryNoEvictionFuzz(config.decay, config.backend, kMaxOps,
                                     in);
    }
  }
  return 0;
}

#endif  // TDS_LIBFUZZER
