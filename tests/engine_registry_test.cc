// AggregateRegistry unit tests: key-table/arena bookkeeping, per-key state
// fidelity against standalone aggregates, batch/per-item bit-identity, lazy
// idle-key expiry, the registry snapshot codec, and structural copies.
#include "engine/registry.h"

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/ceh.h"
#include "core/coarse_ceh.h"
#include "core/factory.h"
#include "core/recent_items.h"
#include "core/snapshot.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "histogram/wbmh_layout.h"
#include "histogram/wbmh_state.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {
namespace {

AggregateRegistry::Options RegistryOptions(Backend backend, double epsilon) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(backend)
                          .epsilon(epsilon)
                          .Build()
                          .value();
  return options;
}

TEST(AggregateRegistryTest, CreateResolvesAutoBackend) {
  AggregateRegistry::Options options;  // kAuto
  auto poly = AggregateRegistry::Create(PolynomialDecay::Create(1.0).value(),
                                        options);
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->backend(), Backend::kWbmh);

  auto sliwin = AggregateRegistry::Create(
      SlidingWindowDecay::Create(64).value(), options);
  ASSERT_TRUE(sliwin.ok());
  EXPECT_EQ(sliwin->backend(), Backend::kCeh);

  auto expd = AggregateRegistry::Create(
      ExponentialDecay::Create(0.01).value(), options);
  ASSERT_TRUE(expd.ok());
  EXPECT_EQ(expd->backend(), Backend::kEwma);

  EXPECT_FALSE(AggregateRegistry::Create(nullptr, options).ok());
}

// One decay per registry backend, each one the backend accepts.
struct BackendCase {
  const char* label;
  DecayPtr decay;
  Backend backend;
};

std::vector<BackendCase> EveryBackend() {
  return {
      {"EXACT", SlidingWindowDecay::Create(96).value(), Backend::kExact},
      {"EWMA", ExponentialDecay::Create(0.01).value(), Backend::kEwma},
      {"RECENT_ITEMS", ExponentialDecay::Create(0.01).value(),
       Backend::kRecentItems},
      {"POLYEXP_PIPE", PolyExponentialDecay::Create(2, 0.05).value(),
       Backend::kPolyExp},
      {"CEH", SlidingWindowDecay::Create(128).value(), Backend::kCeh},
      {"COARSE_CEH", PolynomialDecay::Create(1.0).value(), Backend::kCoarseCeh},
      {"WBMH", PolynomialDecay::Create(1.5).value(), Backend::kWbmh},
  };
}

// Every key of every backend equals a standalone aggregate fed its items,
// bit for bit: MakeDecayedSum and the registry build each backend's
// constants the same way. For WBMH the standalone is a WbmhDecayedSum on a
// private layout, while the registry's keys share one layout and sync to it
// lazily.
TEST(AggregateRegistryTest, PerKeyStateMatchesStandaloneAggregates) {
  for (const BackendCase& config : EveryBackend()) {
    SCOPED_TRACE(config.label);
    const auto options = RegistryOptions(config.backend, 0.1);
    auto registry = AggregateRegistry::Create(config.decay, options);
    ASSERT_TRUE(registry.ok());

    const std::vector<uint64_t> keys = {7, 99, 1234567};
    std::vector<std::unique_ptr<DecayedAggregate>> standalone;
    for (size_t i = 0; i < keys.size(); ++i) {
      standalone.push_back(
          MakeDecayedSum(config.decay, options.aggregate).value());
    }

    Rng rng(42);
    Tick t = 1;
    for (int step = 0; step < 2000; ++step) {
      t += static_cast<Tick>(rng.NextBelow(3));
      const size_t which = rng.NextBelow(keys.size());
      const uint64_t value = rng.NextBelow(5);
      registry->Update(keys[which], t, value);
      standalone[which]->Update(t, value);
    }

    EXPECT_EQ(registry->KeyCount(), keys.size());
    if (config.backend == Backend::kWbmh) {
      // A WBMH answers over its layout as of the layout's last advance.
      // The registry's shared layout sits at the registry clock, so the
      // private layouts go there too.
      for (auto& aggregate : standalone) aggregate->Advance(t);
    }
    double expected_total = 0.0;
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(registry->Query(keys[i], t), standalone[i]->Query(t))
          << "key=" << keys[i];
      EXPECT_EQ(registry->Query(keys[i], t + 50),
                standalone[i]->Query(t + 50));
      expected_total += standalone[i]->Query(t);
    }
    EXPECT_NEAR(registry->QueryTotal(t), expected_total,
                1e-9 * (1.0 + expected_total));
    EXPECT_DOUBLE_EQ(registry->Query(31337, t), 0.0);  // absent key
    EXPECT_FALSE(registry->Contains(31337));
    EXPECT_TRUE(registry->AuditInvariants().ok());
  }
}

// Section 1.1's usage profiles on one shared layout: each key pays for its
// counts only, and the layout's boundaries are charged once.
TEST(AggregateRegistryTest, SharedLayoutAmortizesStorage) {
  auto decay = PolynomialDecay::Create(1.5).value();
  auto registry =
      AggregateRegistry::Create(decay, RegistryOptions(Backend::kWbmh, 0.5));
  ASSERT_TRUE(registry.ok());
  Rng rng(41);
  const uint64_t customers = 500;
  for (Tick t = 1; t <= 2000; ++t) {
    // A few random customers are active per tick.
    for (int k = 0; k < 5; ++k) {
      registry->Update(rng.NextBelow(customers), t, 1 + rng.NextBelow(3));
    }
  }
  registry->Advance(2000);
  EXPECT_EQ(registry->KeyCount(), customers);
  size_t counter_bits = 0;
  registry->ForEachKey([&](uint64_t, Tick,
                           const AggregateRegistry::KeyView& counter) {
    counter_bits += counter.StorageBits();
  });
  // Per-key state is tiny compared to one full histogram with boundaries:
  // mean bits per key stays in the low hundreds.
  EXPECT_LT(static_cast<double>(counter_bits) / customers, 600.0);
  // The rest of the total is one layout's boundaries, as a private layout
  // at the same clock charges them.
  WbmhLayout::Options layout_options;
  layout_options.decay = decay;
  layout_options.epsilon = 0.5;
  auto layout = WbmhLayout::Create(layout_options);
  ASSERT_TRUE(layout.ok());
  layout->AdvanceTo(2000);
  EXPECT_EQ(registry->StorageBits() - counter_bits, layout->StorageBits());
  EXPECT_GT(registry->Query(0, 2000), 0.0);
  EXPECT_DOUBLE_EQ(registry->Query(999999, 2000), 0.0);
}

// A key created after Advance trimmed the shared op log starts at the
// trimmed sequence, sees no other key's data, and equals a private WBMH.
TEST(AggregateRegistryTest, LateJoinerStartsCleanAfterTrim) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const auto options = RegistryOptions(Backend::kWbmh, 0.5);
  auto registry = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(registry.ok());
  for (Tick t = 1; t <= 1000; ++t) registry->Update(1, t, 1);
  registry->Advance(1000);  // trims the shared op log
  registry->Update(2, 1001, 5);
  auto solo = MakeDecayedSum(decay, options.aggregate);
  ASSERT_TRUE(solo.ok());
  (*solo)->Update(1001, 5);
  EXPECT_GT(registry->Query(2, 1001), 0.0);
  EXPECT_EQ(registry->Query(2, 1001), (*solo)->Query(1001));
  EXPECT_GT(registry->Query(1, 1001), registry->Query(2, 1001));
  EXPECT_TRUE(registry->AuditInvariants().ok());
}

// A usage profile on the shared layout reads what a private WBMH fed the
// same items reads, also at a tick past the last update.
TEST(AggregateRegistryTest, QueriesMatchPrivateStructure) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const auto options = RegistryOptions(Backend::kWbmh, 1.0);
  auto registry = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(registry.ok());
  auto solo = MakeDecayedSum(decay, options.aggregate);
  ASSERT_TRUE(solo.ok());
  for (Tick t = 1; t <= 1500; t += 3) {
    registry->Update(42, t, 2);
    (*solo)->Update(t, 2);
  }
  EXPECT_GT(registry->Query(42, 1500), 0.0);
  EXPECT_EQ(registry->Query(42, 1500), (*solo)->Query(1500));
  EXPECT_TRUE(registry->AuditInvariants().ok());
}

// The grouped batch path (with its software-prefetch pipeline) must leave
// every key bit-identical to per-item ingest. The large key space grows the
// slot arena past its 4096- and 8192-slot chunk boundaries mid-batch, while
// pending prefetch hints go stale.
TEST(AggregateRegistryTest, BatchMatchesPerItemBitForBit) {
  struct Run {
    uint64_t key_space;
    int steps;
    Backend backend;
  };
  for (const Run run : {Run{50, 3000, Backend::kCeh},
                        Run{50, 3000, Backend::kWbmh},
                        Run{9000, 11000, Backend::kCeh},
                        Run{9000, 11000, Backend::kWbmh}}) {
    const Backend backend = run.backend;
    SCOPED_TRACE("keys=" + std::to_string(run.key_space) +
                 " backend=" + std::to_string(static_cast<int>(backend)));
    auto decay = PolynomialDecay::Create(1.0).value();
    auto options = RegistryOptions(backend, 0.1);
    // Expiry timing differs by design; the large run disables expiry
    // entirely so the two registries stay byte-equal.
    options.expiry_weight_floor = run.key_space > 50 ? -1.0 : 0.0;
    auto per_item = AggregateRegistry::Create(decay, options);
    auto batched = AggregateRegistry::Create(decay, options);
    ASSERT_TRUE(per_item.ok());
    ASSERT_TRUE(batched.ok());

    Rng rng(7 + static_cast<uint64_t>(backend));
    Tick t = 1;
    std::vector<KeyedItem> items;
    // The large run mostly brings in fresh keys (so it needs few items,
    // each of which the audit build follows with an O(keys) audit), with
    // revisits mixed in.
    uint64_t next_key = 0;
    for (int step = 0; step < run.steps; ++step) {
      if (rng.NextBelow(3) == 0) t += static_cast<Tick>(rng.NextBelow(4));
      const uint64_t key = run.key_space > 50 && rng.NextBelow(4) != 0
                               ? next_key++ % run.key_space
                               : rng.NextBelow(run.key_space);
      items.push_back(KeyedItem{key, t, rng.NextBelow(6)});
    }
    for (const KeyedItem& item : items) {
      per_item->Update(item.key, item.t, item.value);
    }
    size_t offset = 0;
    const size_t chunks[] = {1, 3, 64, 500, 1000};
    size_t chunk_index = 0;
    while (offset < items.size()) {
      const size_t n =
          std::min(chunks[chunk_index++ % 5], items.size() - offset);
      batched->UpdateBatch({items.data() + offset, n});
      offset += n;
    }

    if (run.key_space > 50) {
      EXPECT_GT(batched->ArenaExtent(), 8192u);
      EXPECT_EQ(per_item->ArenaExtent(), batched->ArenaExtent());
      // Encoding also syncs every lagging WBMH counter to the shared
      // layout, which the storage comparison below needs once most keys
      // sit idle between visits.
      std::string per_item_bytes, batched_bytes;
      ASSERT_TRUE(per_item->EncodeState(&per_item_bytes).ok());
      ASSERT_TRUE(batched->EncodeState(&batched_bytes).ok());
      EXPECT_EQ(per_item_bytes, batched_bytes);
    }
    EXPECT_EQ(per_item->KeyCount(), batched->KeyCount());
    EXPECT_EQ(per_item->StorageBits(), batched->StorageBits());
    for (uint64_t key = 0; key < 50; ++key) {
      EXPECT_DOUBLE_EQ(per_item->Query(key, t), batched->Query(key, t))
          << "backend=" << static_cast<int>(backend) << " key=" << key;
      EXPECT_DOUBLE_EQ(per_item->Query(key, t + 123),
                       batched->Query(key, t + 123));
    }
    EXPECT_TRUE(per_item->AuditInvariants().ok());
    EXPECT_TRUE(batched->AuditInvariants().ok());
  }
}

TEST(AggregateRegistryTest, IdleKeysExpireAtHorizon) {
  auto decay = SlidingWindowDecay::Create(64).value();
  auto registry =
      AggregateRegistry::Create(decay, RegistryOptions(Backend::kCeh, 0.2));
  ASSERT_TRUE(registry.ok());
  EXPECT_EQ(registry->expiry_age(), 64);

  for (uint64_t key = 1; key <= 20; ++key) registry->Update(key, 5, 1);
  EXPECT_EQ(registry->KeyCount(), 20u);

  // Eager pass: everything is idle far past the window.
  registry->Advance(500);
  EXPECT_EQ(registry->KeyCount(), 0u);
  EXPECT_DOUBLE_EQ(registry->Query(3, 500), 0.0);
  EXPECT_TRUE(registry->AuditInvariants().ok());

  // Lazy path: one hot key keeps updating while the rest idle out; the
  // bounded per-update sweep reclaims them without any Advance call.
  auto lazy =
      AggregateRegistry::Create(decay, RegistryOptions(Backend::kCeh, 0.2));
  ASSERT_TRUE(lazy.ok());
  for (uint64_t key = 1; key <= 20; ++key) lazy->Update(key, 5, 1);
  const uint64_t epoch_before = lazy->sweep_epoch();
  for (Tick t = 600; t < 700; ++t) lazy->Update(0, t, 1);
  EXPECT_EQ(lazy->KeyCount(), 1u);
  EXPECT_GT(lazy->sweep_epoch(), epoch_before);
  EXPECT_TRUE(lazy->AuditInvariants().ok());
}

TEST(AggregateRegistryTest, ExpiryAgeFromDecayWeightFloor) {
  auto decay = ExponentialDecay::Create(0.1).value();
  auto options = RegistryOptions(Backend::kEwma, 0.1);
  options.expiry_weight_floor = 1e-6;
  auto registry = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(registry.ok());
  const Tick age = registry->expiry_age();
  ASSERT_NE(age, kInfiniteHorizon);
  // Smallest age whose weight is at or below the floor relative to g(1).
  const double target = 1e-6 * decay->Weight(1);
  EXPECT_LE(decay->Weight(age), target);
  EXPECT_GT(decay->Weight(age - 1), target);

  options.expiry_weight_floor = 0.0;
  auto disabled = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(disabled->expiry_age(), kInfiniteHorizon);
}

TEST(AggregateRegistryTest, ManyKeysSurviveRehashAndRecycle) {
  auto decay = SlidingWindowDecay::Create(128).value();
  auto registry =
      AggregateRegistry::Create(decay, RegistryOptions(Backend::kCeh, 0.25));
  ASSERT_TRUE(registry.ok());
  // Two generations: the first expires while the second grows through
  // several table rehashes, recycling the first generation's slots.
  for (uint64_t key = 0; key < 500; ++key) {
    registry->Update(key, 1 + static_cast<Tick>(key / 200), 1);
  }
  EXPECT_EQ(registry->KeyCount(), 500u);
  registry->Advance(1000);
  EXPECT_EQ(registry->KeyCount(), 0u);
  for (uint64_t key = 10000; key < 10800; ++key) {
    registry->Update(key, 1000 + static_cast<Tick>((key - 10000) / 300), 2);
  }
  EXPECT_EQ(registry->KeyCount(), 800u);
  for (uint64_t key = 10000; key < 10800; ++key) {
    EXPECT_TRUE(registry->Contains(key));
  }
  EXPECT_FALSE(registry->Contains(42));
  EXPECT_TRUE(registry->AuditInvariants().ok());
}

TEST(AggregateRegistryTest, SnapshotRoundTripIsByteIdentical) {
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {SlidingWindowDecay::Create(128).value(), Backend::kCeh},
      {ExponentialDecay::Create(0.01).value(), Backend::kEwma},
      {PolynomialDecay::Create(1.5).value(), Backend::kWbmh},
  };
  for (const Config& config : configs) {
    const auto options = RegistryOptions(config.backend, 0.1);
    auto registry = AggregateRegistry::Create(config.decay, options);
    ASSERT_TRUE(registry.ok());
    Rng rng(9);
    Tick t = 1;
    for (int step = 0; step < 1500; ++step) {
      t += static_cast<Tick>(rng.NextBelow(2));
      registry->Update(rng.NextBelow(40), t, rng.NextBelow(4));
    }
    std::string blob;
    ASSERT_TRUE(registry->EncodeState(&blob).ok());
    auto decoded = AggregateRegistry::Decode(config.decay, options, blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->KeyCount(), registry->KeyCount());
    EXPECT_EQ(decoded->now(), registry->now());
    for (uint64_t key = 0; key < 40; ++key) {
      EXPECT_DOUBLE_EQ(decoded->Query(key, t + 10),
                       registry->Query(key, t + 10))
          << "backend=" << static_cast<int>(config.backend) << " key=" << key;
    }
    std::string reencoded;
    ASSERT_TRUE(decoded->EncodeState(&reencoded).ok());
    EXPECT_EQ(reencoded, blob)
        << "re-encode not byte-identical, backend="
        << static_cast<int>(config.backend);
  }
}

// Regression: a fresh WBMH registry's shared layout already sits at the
// stream start tick, so an *empty* registry must still encode a
// self-consistent blob (the engine's snapshot path can run before the
// first item arrives — TSan's scheduling exposed exactly that).
TEST(AggregateRegistryTest, EmptyRegistrySnapshotRoundTrips) {
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {SlidingWindowDecay::Create(128).value(), Backend::kCeh},
      {ExponentialDecay::Create(0.01).value(), Backend::kEwma},
      {PolynomialDecay::Create(1.5).value(), Backend::kWbmh},
  };
  for (const Config& config : configs) {
    const auto options = RegistryOptions(config.backend, 0.1);
    auto registry = AggregateRegistry::Create(config.decay, options);
    ASSERT_TRUE(registry.ok());
    EXPECT_EQ(registry->KeyCount(), 0u);
    std::string blob;
    ASSERT_TRUE(registry->EncodeState(&blob).ok());
    auto decoded = AggregateRegistry::Decode(config.decay, options, blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->KeyCount(), 0u);
    EXPECT_EQ(decoded->now(), registry->now());
    EXPECT_DOUBLE_EQ(decoded->Query(7, 100), 0.0);
    std::string reencoded;
    ASSERT_TRUE(decoded->EncodeState(&reencoded).ok());
    EXPECT_EQ(reencoded, blob);
  }
}

TEST(AggregateRegistryTest, HostileSnapshotsRejectedWithoutCrashing) {
  auto decay = SlidingWindowDecay::Create(64).value();
  const auto options = RegistryOptions(Backend::kCeh, 0.2);
  auto registry = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(registry.ok());
  for (uint64_t key = 0; key < 5; ++key) registry->Update(key, 3, 2);
  std::string blob;
  ASSERT_TRUE(registry->EncodeState(&blob).ok());

  // Every truncation must be rejected.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(
        AggregateRegistry::Decode(decay, options, blob.substr(0, len)).ok())
        << "prefix length " << len;
  }
  // Every single-byte corruption either fails cleanly or decodes to a
  // state that passes its own audit — never crashes.
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string corrupt = blob;
    corrupt[pos] ^= 0x2a;
    auto decoded = AggregateRegistry::Decode(decay, options, corrupt);
    if (decoded.ok()) {
      EXPECT_TRUE(decoded->AuditInvariants().ok()) << "byte " << pos;
    }
  }
  // Mismatched options are rejected up front.
  EXPECT_FALSE(
      AggregateRegistry::Decode(decay, RegistryOptions(Backend::kCeh, 0.4),
                                blob)
          .ok());
  EXPECT_FALSE(AggregateRegistry::Decode(
                   PolynomialDecay::Create(1.0).value(),
                   RegistryOptions(Backend::kCeh, 0.2), blob)
                   .ok());
}

// Every key of a WBMH registry rounds its counts at the registry's
// epsilon. A blob whose counter carries another count_epsilon (valid or
// not) is refused, never adopted.
TEST(AggregateRegistryTest, RejectsWbmhCounterOffTheRegistryEpsilon) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const auto options = RegistryOptions(Backend::kWbmh, 0.1);
  auto registry = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(registry.ok());
  for (Tick t = 1; t <= 300; ++t) registry->Update(5, t, 1 + t % 4);
  std::string blob;
  ASSERT_TRUE(registry->EncodeState(&blob).ok());
  ASSERT_TRUE(AggregateRegistry::Decode(decay, options, blob).ok());

  // The one key's counter state is a substring of the blob, and its first
  // field is the count_epsilon double.
  std::string counter_bytes;
  registry->ForEachKey([&](uint64_t, Tick,
                           const AggregateRegistry::KeyView& view) {
    Encoder encoder;
    ASSERT_TRUE(view.EncodeState(encoder).ok());
    counter_bytes = encoder.Finish();
  });
  const size_t offset = blob.find(counter_bytes);
  ASSERT_NE(offset, std::string::npos);
  for (const double count_epsilon :
       {0.2, 0.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e-320}) {
    Encoder field;
    field.PutDouble(count_epsilon);
    std::string hostile = blob;
    hostile.replace(offset, 8, field.Finish());
    EXPECT_FALSE(AggregateRegistry::Decode(decay, options, hostile).ok())
        << "count_epsilon=" << count_epsilon;
  }
}

// A "TDSREG1" blob with registry clock 100 holding one key (42, last tick
// 50) whose payload is `payload`, written field by field as EncodeState
// lays it out for an owned backend.
std::string OneKeyBlob(const DecayFunction& decay,
                       const AggregateOptions& options,
                       std::string_view payload) {
  Encoder encoder;
  encoder.PutString("TDSREG1");
  encoder.PutString(decay.Name());
  encoder.PutVarint(static_cast<uint64_t>(options.backend()));
  encoder.PutDouble(options.epsilon());
  encoder.PutSigned(options.start());
  encoder.PutSigned(100);
  encoder.PutVarint(1);
  encoder.PutVarint(42);
  encoder.PutSigned(50);
  encoder.PutString(payload);
  return encoder.Finish();
}

/// The same blob with `aggregate`'s EncodeDecayedSum bytes as the payload.
std::string OneKeyBlob(const DecayFunction& decay,
                       const AggregateOptions& options,
                       DecayedAggregate& aggregate) {
  std::string payload;
  EXPECT_TRUE(EncodeDecayedSum(aggregate, &payload).ok());
  return OneKeyBlob(decay, options, payload);
}

// A key whose aggregate is clocked past the registry would abort the next
// in-order update (t >= the registry clock, but < the key's clock), so
// decode refuses it.
TEST(AggregateRegistryTest, RejectsKeyClockAheadOfRegistry) {
  struct Case {
    const char* label;
    DecayPtr decay;
    Backend backend;
  };
  const Case cases[] = {
      {"CEH", SlidingWindowDecay::Create(1024).value(), Backend::kCeh},
      {"EWMA", ExponentialDecay::Create(0.01).value(), Backend::kEwma},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const auto options = RegistryOptions(c.backend, 0.1);
    for (const Tick key_clock : {Tick{50}, Tick{1000000}}) {
      SCOPED_TRACE(key_clock);
      auto aggregate = MakeDecayedSum(c.decay, options.aggregate);
      ASSERT_TRUE(aggregate.ok());
      (*aggregate)->Update(key_clock, 1);
      auto decoded = AggregateRegistry::Decode(
          c.decay, options, OneKeyBlob(*c.decay, options.aggregate, **aggregate));
      if (key_clock <= 100) {
        // With the clocks in order the hand-built blob is well formed.
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        decoded->Update(42, 101, 1);
        EXPECT_GT(decoded->Query(42, 101), 0.0);
      } else {
        EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

/// Feeds `steps` updates over 40 keys from tick `*t` on, with gaps, so
/// keys idle, expire and (for WBMH) the shared layout merges.
void FeedRandom(AggregateRegistry& registry, Rng& rng, int steps, Tick* t) {
  for (int step = 0; step < steps; ++step) {
    *t += static_cast<Tick>(rng.NextBelow(3));
    registry.Update(rng.NextBelow(40), *t, rng.NextBelow(4));
  }
}

// Multi-class values into one key, one tick apart: an EH-family key's bucket
// block grows through several sizes and gains classes.
constexpr uint64_t kGrownKey = 1000;
void FeedGrownKey(AggregateRegistry& registry, Rng& rng, int steps, Tick* t) {
  for (int step = 0; step < steps; ++step) {
    *t += 1;
    registry.Update(kGrownKey, *t,
                    (1 + rng.NextBelow(8)) << rng.NextBelow(12));
  }
}

std::string MustEncode(AggregateRegistry& registry) {
  std::string blob;
  EXPECT_TRUE(registry.EncodeState(&blob).ok());
  return blob;
}

// A batch ingests a tick segment in two passes: resolve finds or creates
// every run's entry, then apply updates the states through the handles it
// stored. Here one segment brings 30 keys to 330 with repeats inside it
// (run length > 1), which doubles the key table (64 -> 128 -> 256 -> 512
// slots at 70% load) three times in the middle of the resolve pass. Every
// backend must still encode byte for byte like the same items fed one by
// one.
TEST(AggregateRegistryTest, SegmentThatRehashesMidResolveMatchesPerItem) {
  for (const BackendCase& c : EveryBackend()) {
    SCOPED_TRACE(c.label);
    auto options = RegistryOptions(c.backend, 0.1);
    options.expiry_weight_floor = -1.0;  // the sweeps differ, not the states
    auto per_item = AggregateRegistry::Create(c.decay, options);
    auto batched = AggregateRegistry::Create(c.decay, options);
    ASSERT_TRUE(per_item.ok()) << per_item.status().ToString();
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    Rng rng(29);
    std::vector<KeyedItem> warm;
    for (uint64_t key = 0; key < 30; ++key) {
      warm.push_back(KeyedItem{key, 1 + static_cast<Tick>(key / 10),
                               1 + rng.NextBelow(4)});
    }
    std::vector<KeyedItem> segment;
    constexpr uint64_t kFresh = 100;
    for (uint64_t i = 0; i < 300; ++i) {
      segment.push_back(KeyedItem{kFresh + i, 5, 1 + rng.NextBelow(4)});
      if (rng.NextBelow(2) == 0) {
        const uint64_t repeat = rng.NextBelow(2) == 0
                                    ? kFresh + rng.NextBelow(i + 1)
                                    : rng.NextBelow(30);
        segment.push_back(KeyedItem{repeat, 5, 1 + rng.NextBelow(4)});
      }
    }
    for (const auto& items : {warm, segment}) {
      for (const KeyedItem& item : items) {
        per_item->Update(item.key, item.t, item.value);
      }
      batched->UpdateBatch(items);
    }
    EXPECT_EQ(batched->KeyCount(), 330u);
    EXPECT_EQ(per_item->KeyCount(), batched->KeyCount());
    EXPECT_EQ(MustEncode(*per_item), MustEncode(*batched));
    EXPECT_TRUE(batched->AuditInvariants().ok());
  }
}

TEST(AggregateRegistryTest, CopyEncodesLikeItsSourceForEveryBackend) {
  for (const BackendCase& c : EveryBackend()) {
    SCOPED_TRACE(c.label);
    const auto options = RegistryOptions(c.backend, 0.1);
    auto registry = AggregateRegistry::Create(c.decay, options);
    ASSERT_TRUE(registry.ok()) << registry.status().ToString();
    Rng rng(17);
    Tick t = 1;
    FeedRandom(*registry, rng, 1500, &t);
    FeedGrownKey(*registry, rng, 300, &t);
    auto copy = registry->Copy();
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    EXPECT_EQ(MustEncode(*copy), MustEncode(*registry));
    EXPECT_EQ(copy->KeyCount(), registry->KeyCount());
    EXPECT_EQ(copy->now(), registry->now());
    EXPECT_EQ(copy->StorageBits(), registry->StorageBits());
    EXPECT_FALSE(copy->checkpoint_tracking());
    EXPECT_TRUE(copy->AuditInvariants().ok());
    for (uint64_t key = 0; key < 40; ++key) {
      EXPECT_EQ(copy->Query(key, t + 10), registry->Query(key, t + 10))
          << "key=" << key;
    }
    EXPECT_EQ(copy->Query(kGrownKey, t + 10),
              registry->Query(kGrownKey, t + 10));
    EXPECT_EQ(copy->QueryTotal(t + 10), registry->QueryTotal(t + 10));
  }
}

// Updating either side after a copy leaves the other's encoding as it was:
// no stamps, cells, or layout are shared between the two.
TEST(AggregateRegistryTest, CopiesAreIndependentOfTheirSource) {
  for (const BackendCase& c : EveryBackend()) {
    SCOPED_TRACE(c.label);
    const auto options = RegistryOptions(c.backend, 0.1);
    auto registry = AggregateRegistry::Create(c.decay, options);
    ASSERT_TRUE(registry.ok());
    Rng rng(23);
    Tick t = 1;
    FeedRandom(*registry, rng, 800, &t);
    FeedGrownKey(*registry, rng, 300, &t);
    auto copy = registry->Copy();
    ASSERT_TRUE(copy.ok());
    const std::string copied = MustEncode(*copy);
    EXPECT_EQ(copy->Query(kGrownKey, t), registry->Query(kGrownKey, t));

    // Both sides keep feeding the grown key, so the copy's exactly-sized
    // block has to grow again on its own.
    Tick source_t = t;
    FeedRandom(*registry, rng, 800, &source_t);
    FeedGrownKey(*registry, rng, 100, &source_t);
    registry->Advance(source_t + 5);
    EXPECT_EQ(MustEncode(*copy), copied) << "source update leaked into copy";

    const std::string source = MustEncode(*registry);
    Tick copy_t = t;
    FeedRandom(*copy, rng, 800, &copy_t);
    FeedGrownKey(*copy, rng, 100, &copy_t);
    copy->Advance(copy_t + 7);
    EXPECT_EQ(MustEncode(*registry), source)
        << "copy update leaked into source";
    EXPECT_TRUE(registry->AuditInvariants().ok());
    EXPECT_TRUE(copy->AuditInvariants().ok());
  }
}

// Per-key state encoded under other options than the registry's must not
// decode: such a key would answer with another accuracy bound (or storage)
// than the registry claims. The header carries the registry's options; the
// key's own payload carries the stray ones.
TEST(AggregateRegistryTest, DecodeRejectsKeyStateBuiltUnderOtherOptions) {
  {
    SCOPED_TRACE("CEH epsilon");
    auto decay = SlidingWindowDecay::Create(1024).value();
    const auto options = RegistryOptions(Backend::kCeh, 0.1);
    CehDecayedSum::Options loose;
    loose.epsilon = 0.5;
    auto key = CehDecayedSum::Create(decay, loose);
    ASSERT_TRUE(key.ok());
    for (Tick t = 1; t <= 50; ++t) (*key)->Update(t, 1);
    auto decoded = AggregateRegistry::Decode(
        decay, options, OneKeyBlob(*decay, options.aggregate, **key));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A recent-items key names its retention constant C: 531 items at
    // epsilon 0.5 against the registry's 692 at 0.1.
    SCOPED_TRACE("RECENT_ITEMS capacity");
    auto decay = ExponentialDecay::Create(0.01).value();
    const auto options = RegistryOptions(Backend::kRecentItems, 0.1);
    RecentItemsExpCounter::Options loose;
    loose.epsilon = 0.5;
    auto key = RecentItemsExpCounter::Create(decay, loose);
    ASSERT_TRUE(key.ok());
    EXPECT_LT((*key)->params().capacity, 692u);
    for (Tick t = 1; t <= 50; ++t) (*key)->Update(t, 1);
    auto decoded = AggregateRegistry::Decode(
        decay, options, OneKeyBlob(*decay, options.aggregate, **key));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  auto decay = PolynomialDecay::Create(1.0).value();
  const auto options = RegistryOptions(Backend::kCoarseCeh, 0.1);
  CoarseCehDecayedSum::Options registry_like;
  registry_like.epsilon = 0.1;
  CoarseCehDecayedSum::Options other_epsilon = registry_like;
  other_epsilon.epsilon = 0.5;
  CoarseCehDecayedSum::Options other_delta = registry_like;
  other_delta.boundary_delta = registry_like.boundary_delta * 2;
  for (const auto& [label, key_options, accept] :
       {std::tuple{"COARSE_CEH as built", registry_like, true},
        std::tuple{"COARSE_CEH epsilon", other_epsilon, false},
        std::tuple{"COARSE_CEH boundary_delta", other_delta, false}}) {
    SCOPED_TRACE(label);
    auto key = CoarseCehDecayedSum::Create(decay, key_options);
    ASSERT_TRUE(key.ok());
    for (Tick t = 1; t <= 50; ++t) (*key)->Update(t, 1);
    auto decoded = AggregateRegistry::Decode(
        decay, options, OneKeyBlob(*decay, options.aggregate, **key));
    if (accept) {
      EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// A key's option field wider than the int it configures is compared whole
// against the registry's: 2^32 plus the registry's value is another value.
TEST(AggregateRegistryTest, DecodeRejectsKeyOptionFieldPastInt) {
  const uint64_t past_int = uint64_t{1} << 32;
  auto KeyPayload = [](const DecayFunction& decay, std::string_view type,
                       const Encoder& state) {
    Encoder encoder;
    PutSnapshotEnvelopePrefix(encoder, type, decay.Name());
    encoder.PutString(state.view());
    return encoder.Finish();
  };
  {
    SCOPED_TRACE("EWMA mantissa_bits = 2^32");
    auto decay = ExponentialDecay::Create(0.01).value();
    const auto options = RegistryOptions(Backend::kEwma, 0.1);
    Encoder state;
    state.PutVarint(past_int);  // the registry's width is 0
    state.PutDouble(1.0);       // register
    state.PutDouble(1.0);       // max register
    state.PutSigned(10);        // now
    state.PutSigned(10);        // first arrival
    auto decoded = AggregateRegistry::Decode(
        decay, options,
        OneKeyBlob(*decay, options.aggregate,
                   KeyPayload(*decay, "EWMA", state)));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    SCOPED_TRACE("POLYEXP_PIPE k = 2^32 + 2");
    auto decay = PolyExponentialDecay::Create(2, 0.05).value();
    const auto options = RegistryOptions(Backend::kPolyExp, 0.1);
    Encoder state;
    state.PutVarint(past_int + 2);  // the registry's degree is 2
    state.PutSigned(10);            // now
    for (int j = 0; j <= 2; ++j) state.PutDouble(1.0);
    auto decoded = AggregateRegistry::Decode(
        decay, options,
        OneKeyBlob(*decay, options.aggregate,
                   KeyPayload(*decay, "POLYEXP_PIPE", state)));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace tds
