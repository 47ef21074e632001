// Cross-shard merged snapshots + rebalancing, locked down differentially:
// a MergedSnapshot over N shards must be key-for-key, bit-for-bit equal to
// a serially-fed single AggregateRegistry — the encode blobs themselves are
// byte-compared — across EH/CEH/WBMH backends, and the equality must
// survive skew-triggered and explicit slice migrations.
//
// Expiry is disabled throughout (expiry_weight_floor = -1): byte equality
// needs every key's aggregate to be the pure function of its own update
// sequence, and an evicted-then-recreated key is not.
#include "engine/merged_snapshot.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "engine_test_util.h"
#include "util/random.h"

namespace tds {
namespace {

struct Config {
  const char* label;
  DecayPtr decay;
  Backend backend;
};

std::vector<Config> MergeConfigs() {
  return {
      // Plain EH semantics (SLIWIN -> CEH degenerates to the EH).
      {"EH", SlidingWindowDecay::Create(1024).value(), Backend::kCeh},
      // CEH proper over a general decay.
      {"CEH", PolynomialDecay::Create(1.0).value(), Backend::kCeh},
      // WBMH: shared layout; counters move across registries and rebind.
      {"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
  };
}

AggregateRegistry::Options RegistryOptions(Backend backend) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(backend)
                          .epsilon(0.15)
                          .Build()
                          .value();
  options.expiry_weight_floor = -1.0;  // bit-identity needs no eviction
  return options;
}

std::string MustEncode(AggregateRegistry& registry) {
  std::string blob;
  const Status status = registry.EncodeState(&blob);
  EXPECT_TRUE(status.ok()) << status.message();
  return blob;
}

/// Keys whose route slice initially lands on shard `shard` of `shards`
/// (initial route: slice % shards).
std::vector<uint64_t> KeysOnShard(uint32_t shard, uint32_t shards,
                                  uint32_t slices, size_t count,
                                  uint64_t start_key) {
  std::vector<uint64_t> keys;
  for (uint64_t key = start_key; keys.size() < count; ++key) {
    if (ShardedAggregateEngine::SliceForKey(key, slices) % shards == shard) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(RegistryMergeTest, MergeFromDisjointBitIdenticalToSerial) {
  for (const Config& config : MergeConfigs()) {
    const auto options = RegistryOptions(config.backend);
    auto left = AggregateRegistry::Create(config.decay, options);
    auto right = AggregateRegistry::Create(config.decay, options);
    auto serial = AggregateRegistry::Create(config.decay, options);
    ASSERT_TRUE(left.ok() && right.ok() && serial.ok());

    // Interleaved, globally tick-ordered key streams; even keys left, odd
    // keys right. The two partial registries end at different clocks (the
    // last item is even), exercising the clock-alignment path.
    Rng rng(7);
    Tick t = 1;
    for (int i = 0; i < 4000; ++i) {
      if (rng.NextBelow(5) == 0) t += rng.NextBelow(4);
      const uint64_t key = rng.NextBelow(97);
      const uint64_t value = rng.NextBelow(6);
      (key % 2 == 0 ? *left : *right).Update(key, t, value);
      serial->Update(key, t, value);
    }

    ASSERT_TRUE(left->MergeFrom(std::move(right).value()).ok());
    EXPECT_EQ(left->KeyCount(), serial->KeyCount());
    EXPECT_EQ(left->now(), serial->now());
    EXPECT_TRUE(left->AuditInvariants().ok());
    EXPECT_EQ(MustEncode(*left), MustEncode(*serial)) << config.label;
  }
}

TEST(RegistryMergeTest, MergeRejectsSharedKeysAndMismatchedOptions) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const auto options = RegistryOptions(Backend::kCeh);
  auto a = AggregateRegistry::Create(decay, options);
  auto b = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(a.ok() && b.ok());
  a->Update(1, 1, 1);
  b->Update(1, 2, 1);
  EXPECT_FALSE(a->MergeFrom(std::move(b).value()).ok());
  // a unchanged by the failed merge.
  EXPECT_EQ(a->KeyCount(), 1u);
  EXPECT_EQ(a->now(), Tick{1});

  auto mismatched = AggregateRegistry::Create(
      decay, RegistryOptions(Backend::kWbmh));
  ASSERT_TRUE(mismatched.ok());
  EXPECT_FALSE(a->MergeFrom(std::move(mismatched).value()).ok());
}

TEST(RegistryMergeTest, ExtractIfSplitsAndRemergesBitIdentically) {
  for (const Config& config : MergeConfigs()) {
    const auto options = RegistryOptions(config.backend);
    auto subject = AggregateRegistry::Create(config.decay, options);
    auto serial = AggregateRegistry::Create(config.decay, options);
    ASSERT_TRUE(subject.ok() && serial.ok());
    Rng rng(11);
    Tick t = 1;
    for (int i = 0; i < 3000; ++i) {
      if (rng.NextBelow(4) == 0) ++t;
      const uint64_t key = rng.NextBelow(64);
      const uint64_t value = rng.NextBelow(5);
      subject->Update(key, t, value);
      serial->Update(key, t, value);
    }
    const size_t before = subject->KeyCount();
    auto extracted =
        subject->ExtractIf([](uint64_t key) { return key % 3 == 0; });
    ASSERT_TRUE(extracted.ok()) << extracted.status().message();
    EXPECT_TRUE(subject->AuditInvariants().ok());
    EXPECT_TRUE(extracted->AuditInvariants().ok());
    EXPECT_EQ(subject->KeyCount() + extracted->KeyCount(), before);
    EXPECT_EQ(extracted->now(), subject->now());
    for (uint64_t key = 0; key < 64; ++key) {
      EXPECT_EQ(extracted->Contains(key), serial->Contains(key) && key % 3 == 0);
      EXPECT_EQ(subject->Contains(key), serial->Contains(key) && key % 3 != 0);
    }
    // Splitting then re-merging restores the exact serial state.
    ASSERT_TRUE(subject->MergeFrom(std::move(extracted).value()).ok());
    EXPECT_EQ(MustEncode(*subject), MustEncode(*serial)) << config.label;
  }
}

/// Feeds `items` through the engine in batches and serially through a
/// reference registry (per item).
void FeedBoth(ShardedAggregateEngine& engine, AggregateRegistry& reference,
              const std::vector<KeyedItem>& items) {
  constexpr size_t kChunk = 512;
  for (size_t i = 0; i < items.size(); i += kChunk) {
    const size_t n = std::min(kChunk, items.size() - i);
    ASSERT_TRUE(SessionIngest(engine, {items.data() + i, n}).ok());
  }
  for (const KeyedItem& item : items) {
    reference.Update(item.key, item.t, item.value);
  }
}

TEST(MergedSnapshotTest, BitIdenticalToSerialReferenceAcrossRebalance) {
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kSlices = 64;
  for (const Config& config : MergeConfigs()) {
    ShardedAggregateEngine::Options options;
    options.registry = RegistryOptions(config.backend);
    options.shards = kShards;
    options.route_slices = kSlices;
    options.rebalance_min_keys = 64;
    options.rebalance_skew = 2.0;
    auto engine = ShardedAggregateEngine::Create(config.decay, options);
    ASSERT_TRUE(engine.ok());
    auto reference = AggregateRegistry::Create(config.decay, options.registry);
    ASSERT_TRUE(reference.ok());

    // A deliberately skewed key population: ~300 keys whose slices land on
    // shard 0 under the initial route, plus a sprinkle on the others.
    const auto heavy = KeysOnShard(0, kShards, kSlices, 300, 1);
    const auto light1 = KeysOnShard(1, kShards, kSlices, 20, 1);
    const auto light2 = KeysOnShard(2, kShards, kSlices, 20, 1);
    Rng rng(13);
    std::vector<KeyedItem> items;
    Tick t = 1;
    for (int i = 0; i < 6000; ++i) {
      if (rng.NextBelow(6) == 0) t += rng.NextBelow(3);
      const uint64_t pick = rng.NextBelow(10);
      uint64_t key;
      if (pick < 8) {
        key = heavy[rng.NextBelow(heavy.size())];
      } else if (pick == 8) {
        key = light1[rng.NextBelow(light1.size())];
      } else {
        key = light2[rng.NextBelow(light2.size())];
      }
      items.push_back(KeyedItem{key, t, rng.NextBelow(5)});
    }
    FeedBoth(**engine, *reference, items);
    ASSERT_TRUE((*engine)->Flush().ok());

    // --- before any rebalance: byte-for-byte equality with the reference.
    auto merged = (*engine)->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    EXPECT_EQ(merged->KeyCount(), reference->KeyCount());
    EXPECT_EQ(merged->cut(), reference->now());
    std::string merged_blob;
    ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
    EXPECT_EQ(merged_blob, MustEncode(*reference)) << config.label;

    // --- the skew trigger must fire (shard 0 dominates by construction).
    const auto stats_before = (*engine)->Stats();
    EXPECT_GE(stats_before[0].live_keys,
              2 * std::max<uint64_t>(1, stats_before[1].live_keys));
    auto rebalanced = (*engine)->RebalanceIfSkewed();
    ASSERT_TRUE(rebalanced.ok()) << rebalanced.status().message();
    EXPECT_TRUE(rebalanced.value()) << config.label;
    EXPECT_GE((*engine)->Rebalances(), 1u);
    const auto stats_after = (*engine)->Stats();
    EXPECT_LT(stats_after[0].live_keys, stats_before[0].live_keys);

    // --- byte equality must hold right after the migration...
    merged = (*engine)->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
    EXPECT_EQ(merged_blob, MustEncode(*reference))
        << config.label << " (post-rebalance)";

    // --- ...and after ingesting more items on the rebalanced routes.
    std::vector<KeyedItem> more;
    for (int i = 0; i < 3000; ++i) {
      if (rng.NextBelow(6) == 0) t += rng.NextBelow(3);
      const uint64_t key = heavy[rng.NextBelow(heavy.size())];
      more.push_back(KeyedItem{key, t, rng.NextBelow(5)});
    }
    FeedBoth(**engine, *reference, more);
    ASSERT_TRUE((*engine)->Flush().ok());
    merged = (*engine)->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    EXPECT_EQ(merged->KeyCount(), reference->KeyCount());
    ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
    EXPECT_EQ(merged_blob, MustEncode(*reference))
        << config.label << " (post-rebalance ingest)";

    // Per-key spot check through the public query paths.
    for (const uint64_t key : heavy) {
      EXPECT_DOUBLE_EQ(merged->Query(key, t), reference->Query(key, t));
      EXPECT_DOUBLE_EQ((*engine)->QueryKey(key, t), reference->Query(key, t));
    }
  }
}

// Snapshot() and ShardSnapshot() copy every shard structurally. What they
// yield must equal the codec path they replaced, rebuilt here from public
// API: each writer encodes its registry, the blobs decode, FromShards folds
// the decoded shards. The newest items reach shard 0 only, so the other
// shards' clocks (and for WBMH their layouts) lag the cut the fold
// advances them to.
TEST(MergedSnapshotTest, SnapshotMatchesCodecPathForEveryBackend) {
  constexpr uint32_t kShards = 3;
  constexpr uint32_t kSlices = 24;
  const std::vector<Config> configs = {
      {"EXACT", SlidingWindowDecay::Create(96).value(), Backend::kExact},
      {"EWMA", ExponentialDecay::Create(0.01).value(), Backend::kEwma},
      {"RECENT_ITEMS", ExponentialDecay::Create(0.01).value(),
       Backend::kRecentItems},
      {"POLYEXP_PIPE", PolyExponentialDecay::Create(2, 0.05).value(),
       Backend::kPolyExp},
      {"CEH", PolynomialDecay::Create(1.0).value(), Backend::kCeh},
      {"COARSE_CEH", PolynomialDecay::Create(1.0).value(),
       Backend::kCoarseCeh},
      {"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(config.label);
    ShardedAggregateEngine::Options options;
    options.registry = RegistryOptions(config.backend);
    options.shards = kShards;
    options.route_slices = kSlices;
    auto engine = ShardedAggregateEngine::Create(config.decay, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Rng rng(29);
    std::vector<KeyedItem> items;
    Tick t = 1;
    for (int i = 0; i < 4000; ++i) {
      if (rng.NextBelow(5) == 0) t += rng.NextBelow(3);
      items.push_back(KeyedItem{rng.NextBelow(150), t, rng.NextBelow(5)});
    }
    for (const uint64_t key : KeysOnShard(0, kShards, kSlices, 5, 1)) {
      items.push_back(KeyedItem{key, t + 40, 1});
    }
    ASSERT_TRUE(SessionIngest(**engine, items).ok());
    ASSERT_TRUE((*engine)->Flush().ok());

    std::vector<AggregateRegistry> decoded;
    for (uint32_t s = 0; s < kShards; ++s) {
      std::string blob;
      (*engine)->RunOnWriterForTest(s, [&](AggregateRegistry& registry) {
        blob = MustEncode(registry);
      });
      auto shard = AggregateRegistry::Decode(config.decay, options.registry,
                                             blob);
      ASSERT_TRUE(shard.ok()) << shard.status().ToString();
      // The writer's structural copy answers like the decoded blob.
      const auto copy = (*engine)->ShardSnapshot(s);
      ASSERT_NE(copy, nullptr);
      EXPECT_EQ(copy->KeyCount(), shard->KeyCount());
      EXPECT_EQ(copy->now(), shard->now());
      shard->ForEachKey(
          [&](uint64_t key, Tick, const AggregateRegistry::KeyView&) {
            EXPECT_EQ(copy->Query(key, t + 40), shard->Query(key, t + 40))
                << "shard=" << s << " key=" << key;
          });
      decoded.push_back(std::move(shard).value());
    }
    EXPECT_LT(decoded[1].now(), decoded[0].now());
    auto codec_path = MergedSnapshot::FromShards(std::move(decoded));
    ASSERT_TRUE(codec_path.ok()) << codec_path.status().ToString();
    std::string expected;
    ASSERT_TRUE(codec_path->EncodeRegistryState(&expected).ok());

    auto merged = (*engine)->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    std::string merged_blob;
    ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
    EXPECT_EQ(merged_blob, expected);
    EXPECT_EQ(merged->cut(), codec_path->cut());
    const auto top = merged->TopK(10, t + 40);
    const auto expected_top = codec_path->TopK(10, t + 40);
    ASSERT_EQ(top.size(), expected_top.size());
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].key, expected_top[i].key);
      EXPECT_EQ(top[i].weight, expected_top[i].weight);
    }
  }
}

TEST(MergedSnapshotTest, ExplicitSliceMigrationPreservesEquality) {
  auto decay = PolynomialDecay::Create(1.0).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kWbmh);
  options.shards = 3;
  options.route_slices = 24;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());
  auto reference = AggregateRegistry::Create(decay, options.registry);
  ASSERT_TRUE(reference.ok());

  Rng rng(29);
  std::vector<KeyedItem> items;
  Tick t = 1;
  for (int i = 0; i < 4000; ++i) {
    if (rng.NextBelow(5) == 0) ++t;
    items.push_back(KeyedItem{rng.NextBelow(200), t, rng.NextBelow(4)});
  }
  FeedBoth(**engine, *reference, items);
  ASSERT_TRUE((*engine)->Flush().ok());

  // Move every slice to shard 2, in two waves, ingesting between them.
  const std::vector<uint32_t> first_wave = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  ASSERT_TRUE((*engine)->MigrateSlices(first_wave, 2).ok());
  std::vector<KeyedItem> more;
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextBelow(5) == 0) ++t;
    more.push_back(KeyedItem{rng.NextBelow(200), t, rng.NextBelow(4)});
  }
  FeedBoth(**engine, *reference, more);
  ASSERT_TRUE((*engine)->Flush().ok());
  const std::vector<uint32_t> second_wave = {12, 13, 14, 15, 16, 17, 18, 19,
                                             20, 21, 22, 23};
  ASSERT_TRUE((*engine)->MigrateSlices(second_wave, 2).ok());

  // Everything now routes to shard 2; the other shards are empty and the
  // merged view still byte-matches the reference.
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ((*engine)->RouteForKey(key), 2u);
  }
  const auto stats = (*engine)->Stats();
  EXPECT_EQ(stats[0].live_keys, 0u);
  EXPECT_EQ(stats[1].live_keys, 0u);
  EXPECT_EQ(stats[2].live_keys, reference->KeyCount());
  auto merged = (*engine)->Snapshot();
  ASSERT_TRUE(merged.ok());
  std::string merged_blob;
  ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
  EXPECT_EQ(merged_blob, MustEncode(*reference));
}

TEST(MergedSnapshotTest, TopKMatchesBruteForce) {
  auto decay = SlidingWindowDecay::Create(512).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh);
  options.shards = 3;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());
  Rng rng(53);
  std::vector<KeyedItem> items;
  Tick t = 1;
  for (int i = 0; i < 3000; ++i) {
    if (rng.NextBelow(3) == 0) ++t;
    // Zipf-ish: low keys arrive far more often, so the top-k is nontrivial.
    const uint64_t key = rng.NextBelow(1 + rng.NextBelow(80));
    items.push_back(KeyedItem{key, t, 1 + rng.NextBelow(4)});
  }
  ASSERT_TRUE(SessionIngest(**engine, items).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  auto merged = (*engine)->Snapshot();
  ASSERT_TRUE(merged.ok());

  const auto keys = merged->Keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), merged->KeyCount());
  std::vector<MergedSnapshot::WeightedKey> brute;
  for (const uint64_t key : keys) {
    brute.push_back({key, merged->Query(key, t)});
  }
  std::sort(brute.begin(), brute.end(),
            [](const auto& a, const auto& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.key < b.key;
            });
  for (const size_t k : {size_t{1}, size_t{10}, keys.size() + 5}) {
    const auto top = merged->TopK(k, t);
    ASSERT_EQ(top.size(), std::min(k, keys.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].key, brute[i].key) << "k=" << k << " i=" << i;
      EXPECT_DOUBLE_EQ(top[i].weight, brute[i].weight);
    }
  }
  // QueryTotal through the merged view equals the per-shard sum.
  EXPECT_DOUBLE_EQ(merged->QueryTotal(t), (*engine)->QueryTotal(t));
}

// The partial-selection path must stay deterministic when many keys tie on
// weight: ties break key-ascending, for every k including k = 0, k landing
// inside a tie run, and k >= the live key count.
TEST(MergedSnapshotTest, TopKBreaksTiesByKeyForEveryK) {
  auto decay = SlidingWindowDecay::Create(512).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kExact);
  options.shards = 3;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());
  // Three tiers, heavily tied inside each: keys 0..9 weight 3, keys
  // 10..19 weight 2, keys 20..29 weight 1, all at one tick.
  std::vector<KeyedItem> items;
  for (uint64_t key = 0; key < 30; ++key) {
    items.push_back(KeyedItem{key, 1, 3 - key / 10});
  }
  ASSERT_TRUE(SessionIngest(**engine, items).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  auto merged = (*engine)->Snapshot();
  ASSERT_TRUE(merged.ok());

  for (size_t k = 0; k <= 35; ++k) {
    const auto top = merged->TopK(k, 1);
    ASSERT_EQ(top.size(), std::min<size_t>(k, 30)) << "k=" << k;
    for (size_t i = 0; i < top.size(); ++i) {
      // With ties broken key-ascending the full order is exactly key order.
      EXPECT_EQ(top[i].key, i) << "k=" << k;
      if (i > 0) {
        EXPECT_GE(top[i - 1].weight, top[i].weight) << "k=" << k;
      }
    }
    // Same k twice: bit-identical (selection must not be order-sensitive).
    const auto again = merged->TopK(k, 1);
    ASSERT_EQ(again.size(), top.size());
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(again[i].key, top[i].key);
      EXPECT_DOUBLE_EQ(again[i].weight, top[i].weight);
    }
  }
}

TEST(MergedSnapshotTest, FromShardsValidates) {
  EXPECT_FALSE(MergedSnapshot::FromShards({}).ok());
  auto decay = PolynomialDecay::Create(1.0).value();
  std::vector<AggregateRegistry> shards;
  for (int i = 0; i < 2; ++i) {
    auto registry =
        AggregateRegistry::Create(decay, RegistryOptions(Backend::kCeh));
    ASSERT_TRUE(registry.ok());
    registry->Update(7, 1, 1);  // same key in both: must be rejected
    shards.push_back(std::move(registry).value());
  }
  EXPECT_FALSE(MergedSnapshot::FromShards(std::move(shards)).ok());
}

TEST(ShardedEngineTest, RebalanceBelowThresholdsIsANoOp) {
  auto decay = SlidingWindowDecay::Create(256).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh);
  options.shards = 2;
  options.route_slices = 16;
  options.rebalance_min_keys = 1 << 20;  // unreachable
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());
  std::vector<KeyedItem> items;
  for (uint64_t key = 0; key < 100; ++key) {
    items.push_back(KeyedItem{key, 1, 1});
  }
  ASSERT_TRUE(SessionIngest(**engine, items).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  auto rebalanced = (*engine)->RebalanceIfSkewed();
  ASSERT_TRUE(rebalanced.ok());
  EXPECT_FALSE(rebalanced.value());
  EXPECT_EQ((*engine)->Rebalances(), 0u);
}

TEST(ShardedEngineTest, CreateValidatesRouteOptions) {
  auto decay = SlidingWindowDecay::Create(64).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh);
  options.shards = 4;
  options.route_slices = 2;  // fewer slices than shards
  EXPECT_FALSE(ShardedAggregateEngine::Create(decay, options).ok());
  options.route_slices = 8;
  options.rebalance_skew = 0.5;
  EXPECT_FALSE(ShardedAggregateEngine::Create(decay, options).ok());
}

}  // namespace
}  // namespace tds
