// ProducerSession unit tests: lifecycle and stats, staging/auto-flush,
// the route-epoch repartition path, the stopped-engine contract, and the
// rate-weighted rebalancer's hot-slice selection.
#include "engine/producer_session.h"

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/engine.h"
#include "engine/registry.h"
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

ShardedAggregateEngine::Options EngineOptions(uint32_t shards) {
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh, 0.2);
  options.shards = shards;
  return options;
}

/// First `count` keys (ascending from `start`) hashing into `slice`.
std::vector<uint64_t> KeysInSlice(uint32_t slice, uint32_t slice_count,
                                  size_t count, uint64_t start = 1) {
  std::vector<uint64_t> keys;
  for (uint64_t key = start; keys.size() < count; ++key) {
    if (ShardedAggregateEngine::SliceForKey(key, slice_count) == slice) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(ShardedEngineSessionTest, LifecycleStatsAndTotals) {
  auto decay = SlidingWindowDecay::Create(1 << 12).value();
  auto engine = ShardedAggregateEngine::Create(decay, EngineOptions(2));
  ASSERT_TRUE(engine.ok());

  {
    auto session = (*engine)->NewProducer();
    ASSERT_TRUE(session.ok());
    EXPECT_EQ((*session)->staged(), 0u);
    ASSERT_TRUE((*session)->Add(1, 1, 5).ok());
    ASSERT_TRUE((*session)->Add(2, 1, 7).ok());
    EXPECT_EQ((*session)->staged(), 2u);
    // Staged items are invisible until a flush: nothing applied yet.
    EXPECT_TRUE((*session)->AuditInvariants().ok());
    ASSERT_TRUE((*session)->Flush().ok());
    EXPECT_EQ((*session)->staged(), 0u);
    ASSERT_TRUE((*engine)->Flush().ok());
    EXPECT_EQ((*engine)->ItemsApplied(), 2u);

    const auto stats = (*session)->stats();
    EXPECT_EQ(stats.items_staged, 2u);
    EXPECT_EQ(stats.items_flushed, 2u);
    EXPECT_EQ(stats.items_rejected, 0u);
    EXPECT_TRUE((*session)->AuditInvariants().ok());
  }
  const auto totals = (*engine)->SessionTotals();
  EXPECT_EQ(totals.sessions_opened, 1u);
  EXPECT_EQ(totals.sessions_closed, 1u);
  EXPECT_EQ(totals.items_staged, 2u);
  EXPECT_EQ(totals.items_flushed, 2u);
}

TEST(ShardedEngineSessionTest, AutoFlushAtCapacity) {
  auto decay = SlidingWindowDecay::Create(1 << 12).value();
  auto engine = ShardedAggregateEngine::Create(decay, EngineOptions(2));
  ASSERT_TRUE(engine.ok());

  ProducerSessionOptions options;
  options.staging_capacity = 8;
  auto session = (*engine)->NewProducer(options);
  ASSERT_TRUE(session.ok());
  std::vector<KeyedItem> items;
  for (uint64_t i = 0; i < 20; ++i) items.push_back(KeyedItem{i, 1, 1});
  ASSERT_TRUE((*session)->AddBatch(items).ok());
  // 20 items through a capacity-8 buffer: two full auto-flushes, 4 staged.
  EXPECT_EQ((*session)->staged(), 4u);
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->ItemsApplied(), 16u);
  ASSERT_TRUE((*session)->Flush().ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->ItemsApplied(), 20u);
  EXPECT_TRUE((*session)->AuditInvariants().ok());
}

TEST(ShardedEngineSessionTest, DestructorFlushesStagedItems) {
  auto decay = SlidingWindowDecay::Create(1 << 12).value();
  auto engine = ShardedAggregateEngine::Create(decay, EngineOptions(2));
  ASSERT_TRUE(engine.ok());
  {
    auto session = (*engine)->NewProducer();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->Add(42, 1, 9).ok());
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->ItemsApplied(), 1u);
  EXPECT_DOUBLE_EQ((*engine)->QueryKey(42, 1), 9.0);
}

TEST(ShardedEngineSessionTest, NewProducerValidatesOptions) {
  auto decay = SlidingWindowDecay::Create(1 << 12).value();
  auto engine = ShardedAggregateEngine::Create(decay, EngineOptions(2));
  ASSERT_TRUE(engine.ok());

  ProducerSessionOptions zero_capacity;
  zero_capacity.staging_capacity = 0;
  EXPECT_FALSE((*engine)->NewProducer(zero_capacity).ok());
  ProducerSessionOptions negative_deadline;
  negative_deadline.block_deadline = std::chrono::nanoseconds(-1);
  EXPECT_FALSE((*engine)->NewProducer(negative_deadline).ok());
  EXPECT_TRUE((*engine)->NewProducer().ok());
}

TEST(ShardedEngineSessionTest, StoppedEngineKeepsItemsStaged) {
  auto decay = SlidingWindowDecay::Create(1 << 12).value();
  auto engine = ShardedAggregateEngine::Create(decay, EngineOptions(2));
  ASSERT_TRUE(engine.ok());

  auto session = (*engine)->NewProducer();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Add(1, 1, 1).ok());
  ASSERT_TRUE((*session)->Add(2, 1, 1).ok());
  (*engine)->Stop();

  // Staging rejects fast; the already-staged items are kept (nothing was
  // admitted, nothing is counted) and a flush reports kFailedPrecondition.
  EXPECT_EQ((*session)->Add(3, 1, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->staged(), 2u);
  const auto stats = (*session)->stats();
  EXPECT_EQ(stats.items_flushed, 0u);
  EXPECT_EQ(stats.items_rejected, 0u);
  EXPECT_TRUE((*session)->AuditInvariants().ok());

  // New sessions are refused outright.
  EXPECT_EQ((*engine)->NewProducer().status().code(),
            StatusCode::kFailedPrecondition);
}

// A migration between staging and flush publishes a newer route epoch;
// the flush must re-partition the staged runs against the fresh table so
// every item lands on (and only on) its current owner shard.
TEST(ShardedEngineSessionTest, FlushRepartitionsAfterMigration) {
  constexpr uint32_t kShards = 2;
  constexpr uint32_t kSlices = 64;
  auto decay = PolynomialDecay::Create(1.0).value();
  auto options = EngineOptions(kShards);
  options.route_slices = kSlices;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());

  // Multi-tick traffic (ticks interleaved across keys) so the
  // repartition's stable tick sort is actually exercised.
  std::vector<KeyedItem> schedule;
  Rng rng(77);
  for (Tick t = 1; t <= 10; ++t) {
    for (int i = 0; i < 40; ++i) {
      schedule.push_back(
          KeyedItem{1 + rng.NextBelow(100), t, 1 + rng.NextBelow(4)});
    }
  }
  auto reference = AggregateRegistry::Create(decay, options.registry);
  ASSERT_TRUE(reference.ok());
  for (const KeyedItem& item : schedule) {
    reference->Update(item.key, item.t, item.value);
  }

  auto session = (*engine)->NewProducer();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->AddBatch(schedule).ok());
  EXPECT_EQ((*session)->staged(), 400u);

  // Re-route every slice to shard 1 while the 400 items sit staged: the
  // session's cached table is now a full generation behind.
  const uint64_t generation_before = (*engine)->RouteGeneration();
  std::vector<uint32_t> slices;
  for (uint32_t s = 0; s < kSlices; ++s) slices.push_back(s);
  ASSERT_TRUE((*engine)->MigrateSlices(slices, 1).ok());
  EXPECT_GT((*engine)->RouteGeneration(), generation_before);

  ASSERT_TRUE((*session)->Flush().ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  // Conservation: exactly once each — a stale-routed run would break the
  // count (or the per-key values below).
  EXPECT_EQ((*engine)->ItemsApplied(), 400u);
  const auto stats = (*engine)->Stats();
  ASSERT_EQ(stats.size(), kShards);
  // Everything re-routed to shard 1; shard 0 must have applied nothing.
  EXPECT_EQ(stats[0].items_applied, 0u);
  EXPECT_EQ(stats[1].items_applied, 400u);
  for (uint64_t key = 1; key <= 100; ++key) {
    EXPECT_DOUBLE_EQ((*engine)->QueryKey(key, 10), reference->Query(key, 10))
        << "key=" << key;
  }
  EXPECT_TRUE((*session)->AuditInvariants().ok());
}

// The rebalancer must move *hot* slices, not just populous ones: a small
// slice taking most of the offered load outranks a populous cold slice.
TEST(ShardedEngineSessionTest, RebalancePrefersHotSliceOverPopulousColdOne) {
  constexpr uint32_t kShards = 2;
  constexpr uint32_t kSlices = 64;
  auto decay = SlidingWindowDecay::Create(1 << 16).value();
  auto options = EngineOptions(kShards);
  options.route_slices = kSlices;
  options.rebalance_min_keys = 16;
  options.rebalance_skew = 1.5;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());

  // Initial route is round-robin: even slices → shard 0, odd → shard 1.
  // Donor load on shard 0: a cold slice with 300 keys / one item each,
  // and a hot slice with 20 keys / 5000 items. Receiver shard 1 gets a
  // token population.
  const uint32_t cold_slice = 0;
  const uint32_t hot_slice = 2;
  const uint32_t receiver_slice = 1;
  const auto cold_keys = KeysInSlice(cold_slice, kSlices, 300);
  const auto hot_keys = KeysInSlice(hot_slice, kSlices, 20);
  const auto receiver_keys = KeysInSlice(receiver_slice, kSlices, 5);

  auto session = (*engine)->NewProducer();
  ASSERT_TRUE(session.ok());
  for (const uint64_t key : cold_keys) {
    ASSERT_TRUE((*session)->Add(key, 1, 1).ok());
  }
  for (const uint64_t key : receiver_keys) {
    ASSERT_TRUE((*session)->Add(key, 1, 1).ok());
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*session)->Add(hot_keys[i % hot_keys.size()], 1, 1).ok());
  }
  ASSERT_TRUE((*session)->Flush().ok());
  ASSERT_TRUE((*engine)->Flush().ok());

  // Donor = shard 0 (320 keys) vs receiver = shard 1 (5 keys): gap 315.
  // Hottest-first greedy: the hot slice (rate 5000, 20 keys) is accepted
  // (2*0 + 20 < 315); the cold slice (rate 300, 300 keys) is then
  // rejected (2*20 + 300 >= 315). Key-count ordering — the old behavior —
  // would have moved the cold slice instead and left no room for the hot
  // one.
  auto moved = (*engine)->RebalanceIfSkewed();
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(moved.value());
  for (const uint64_t key : hot_keys) {
    EXPECT_EQ((*engine)->RouteForKey(key), 1u) << "hot key=" << key;
  }
  for (const uint64_t key : cold_keys) {
    EXPECT_EQ((*engine)->RouteForKey(key), 0u) << "cold key=" << key;
  }
}

}  // namespace
}  // namespace tds
