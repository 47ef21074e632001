// ShardedAggregateEngine concurrency tests: producer sessions feeding the
// SPSC ingest queues while shard writers drain them and snapshot readers
// query concurrently. Run under TSan via tools/check.sh tsan (and with
// schedule chaos via tools/check.sh chaos).
//
// The exact-equality oracle works because (a) each key is owned by one
// producer, so its item order is deterministic, (b) producers flush their
// sessions and barrier between tick slices, so every shard observes
// non-decreasing ticks, and (c) the registry's batch path is bit-identical
// to per-item ingestion.
#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/producer_session.h"
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

TEST(ShardedEngineTest, MultiProducerSessionsMatchSerialReference) {
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
      {SlidingWindowDecay::Create(4096).value(), Backend::kCeh},
  };
  constexpr int kProducers = 4;
  constexpr int kRounds = 24;
  constexpr int kKeysPerProducer = 32;
  constexpr int kItemsPerRound = 60;

  for (const Config& config : configs) {
    ShardedAggregateEngine::Options options;
    options.registry = RegistryOptions(config.backend, 0.15);
    options.shards = 4;
    options.queue_capacity = 1 << 12;
    auto engine = ShardedAggregateEngine::Create(config.decay, options);
    ASSERT_TRUE(engine.ok());

    // Deterministic per-producer item schedule, replayed later into the
    // serial reference in (round, producer) order — the same per-key
    // sequences, and globally non-decreasing ticks.
    std::vector<std::vector<std::vector<KeyedItem>>> schedule(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      Rng rng(1000 + p);
      schedule[p].resize(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kItemsPerRound; ++i) {
          const uint64_t key =
              p * kKeysPerProducer + rng.NextBelow(kKeysPerProducer);
          schedule[p][r].push_back(
              KeyedItem{key, r + 1, rng.NextBelow(5)});
        }
      }
    }

    std::barrier round_barrier(kProducers);
    std::atomic<bool> done{false};
    // A reader hammers snapshots while producers run (exercised for
    // TSan; values are validated after the flush below).
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        (void)(*engine)->QueryTotal(kRounds);
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        // One session per producer thread — the session is the handle, not
        // shared state; flush-then-barrier keeps per-shard ticks ordered.
        auto session = (*engine)->NewProducer();
        ASSERT_TRUE(session.ok());
        for (int r = 0; r < kRounds; ++r) {
          EXPECT_TRUE((*session)->AddBatch(schedule[p][r]).ok());
          EXPECT_TRUE((*session)->Flush().ok());
          round_barrier.arrive_and_wait();
        }
        EXPECT_TRUE((*session)->AuditInvariants().ok());
      });
    }
    for (auto& thread : producers) thread.join();
    done.store(true, std::memory_order_release);
    reader.join();
    ASSERT_TRUE((*engine)->Flush().ok());
    EXPECT_EQ((*engine)->ItemsApplied(),
              uint64_t{kProducers} * kRounds * kItemsPerRound);

    auto reference =
        AggregateRegistry::Create(config.decay, options.registry);
    ASSERT_TRUE(reference.ok());
    for (int r = 0; r < kRounds; ++r) {
      for (int p = 0; p < kProducers; ++p) {
        for (const KeyedItem& item : schedule[p][r]) {
          reference->Update(item.key, item.t, item.value);
        }
      }
    }

    for (uint64_t key = 0; key < kProducers * kKeysPerProducer; ++key) {
      EXPECT_DOUBLE_EQ((*engine)->QueryKey(key, kRounds),
                       reference->Query(key, kRounds))
          << "backend=" << static_cast<int>(config.backend) << " key=" << key;
    }
    EXPECT_EQ((*engine)->KeyCount(), reference->KeyCount());
  }
}

// Producers, merged-snapshot readers, and a rebalancer all race; the final
// merged snapshot must still be byte-identical to the serial reference.
// Byte equality is a valid oracle even with racing producers: every key is
// owned by one producer (deterministic per-key sequence), same-tick
// cross-key interleaving is invisible to per-key aggregates, the WBMH
// layout is a pure function of the clock, and the codec sorts keys.
TEST(ShardedEngineTest, RebalanceRacesProducersAndSnapshotReaders) {
  constexpr int kProducers = 4;
  constexpr int kRounds = 30;
  constexpr int kItemsPerRound = 50;
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kSlices = 64;

  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
      {SlidingWindowDecay::Create(4096).value(), Backend::kCeh},
  };
  for (const Config& config : configs) {
    ShardedAggregateEngine::Options options;
    options.registry = RegistryOptions(config.backend, 0.15);
    options.registry.expiry_weight_floor = -1.0;  // byte-equality oracle
    options.shards = kShards;
    options.route_slices = kSlices;
    options.rebalance_min_keys = 16;
    options.rebalance_skew = 1.5;
    options.queue_capacity = 1 << 12;
    auto engine = ShardedAggregateEngine::Create(config.decay, options);
    ASSERT_TRUE(engine.ok());

    // Keys deliberately skewed onto shard 0's initial slices so the skew
    // trigger actually fires while producers are running. Each producer
    // owns a disjoint key slice (deterministic per-key order).
    std::vector<uint64_t> pool;
    for (uint64_t key = 1; pool.size() < kProducers * 24; ++key) {
      const uint32_t slice = ShardedAggregateEngine::SliceForKey(key, kSlices);
      if (slice % kShards == 0 || pool.size() % 7 == 0) pool.push_back(key);
    }
    std::vector<std::vector<std::vector<KeyedItem>>> schedule(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      Rng rng(2000 + p);
      schedule[p].resize(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kItemsPerRound; ++i) {
          const uint64_t key = pool[p * 24 + rng.NextBelow(24)];
          schedule[p][r].push_back(KeyedItem{key, r + 1, rng.NextBelow(5)});
        }
      }
    }

    std::barrier round_barrier(kProducers);
    std::atomic<bool> done{false};
    std::atomic<int> migrations{0};
    std::thread rebalancer([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto moved = (*engine)->RebalanceIfSkewed();
        ASSERT_TRUE(moved.ok()) << moved.status().message();
        if (moved.value()) migrations.fetch_add(1, std::memory_order_relaxed);
        // Also exercise explicit migrations racing the skew path.
        const uint32_t slice = static_cast<uint32_t>(
            migrations.load(std::memory_order_relaxed) % kSlices);
        ASSERT_TRUE((*engine)
                        ->MigrateSlices(std::vector<uint32_t>{slice},
                                        slice % kShards)
                        .ok());
        std::this_thread::yield();
      }
    });
    std::thread snapshotter([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto merged = (*engine)->Snapshot();
        ASSERT_TRUE(merged.ok()) << merged.status().message();
        // A merged view can never double-count: its key count is bounded
        // by the full population.
        EXPECT_LE(merged->KeyCount(), pool.size());
        std::this_thread::yield();
      }
    });
    // Point reads race the migrations: the route lock pins a key's shard
    // for the read, and the writer serves it between drain chunks.
    std::thread point_reader([&] {
      Rng rng(77);
      while (!done.load(std::memory_order_acquire)) {
        const double sum =
            (*engine)->QueryKey(pool[rng.NextBelow(pool.size())], 0);
        EXPECT_TRUE(std::isfinite(sum) && sum >= 0.0) << sum;
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        auto session = (*engine)->NewProducer();
        ASSERT_TRUE(session.ok());
        for (int r = 0; r < kRounds; ++r) {
          EXPECT_TRUE((*session)->AddBatch(schedule[p][r]).ok());
          EXPECT_TRUE((*session)->Flush().ok());
          round_barrier.arrive_and_wait();
        }
      });
    }
    for (auto& thread : producers) thread.join();
    done.store(true, std::memory_order_release);
    rebalancer.join();
    snapshotter.join();
    point_reader.join();
    ASSERT_TRUE((*engine)->Flush().ok());

    auto reference = AggregateRegistry::Create(config.decay, options.registry);
    ASSERT_TRUE(reference.ok());
    for (int r = 0; r < kRounds; ++r) {
      for (int p = 0; p < kProducers; ++p) {
        for (const KeyedItem& item : schedule[p][r]) {
          reference->Update(item.key, item.t, item.value);
        }
      }
    }
    auto merged = (*engine)->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    std::string merged_blob;
    ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
    std::string reference_blob;
    ASSERT_TRUE(reference->EncodeState(&reference_blob).ok());
    EXPECT_EQ(merged_blob, reference_blob)
        << "backend=" << static_cast<int>(config.backend)
        << " migrations=" << migrations.load();
  }
}

// Structural copies under full-rate ingest: Snapshot() and ShardSnapshot()
// clone each shard on its writer between drain chunks while producers keep
// feeding it. Every merged copy must pass the structural audit, a copy
// taken mid-stream must keep answering exactly as it did when taken (it
// shares no state the writer goes on mutating — TSan watches that too),
// and the final copy must equal a serially-fed reference byte for byte.
TEST(ShardedEngineTest, SnapshotCopiesRaceIngest) {
  constexpr int kProducers = 3;
  constexpr int kRounds = 40;
  constexpr int kItemsPerRound = 60;
  constexpr uint64_t kKeysPerProducer = 32;
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
      {SlidingWindowDecay::Create(4096).value(), Backend::kCeh},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(static_cast<int>(config.backend));
    ShardedAggregateEngine::Options options;
    options.registry = RegistryOptions(config.backend, 0.15);
    options.registry.expiry_weight_floor = -1.0;  // byte-equality oracle
    options.shards = 3;
    options.route_slices = 24;
    auto engine = ShardedAggregateEngine::Create(config.decay, options);
    ASSERT_TRUE(engine.ok());
    // Each producer owns a disjoint key range (deterministic per-key order).
    std::vector<std::vector<std::vector<KeyedItem>>> schedule(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      Rng rng(3000 + p);
      schedule[p].resize(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kItemsPerRound; ++i) {
          const uint64_t key =
              p * kKeysPerProducer + rng.NextBelow(kKeysPerProducer);
          schedule[p][r].push_back(KeyedItem{key, r + 1, rng.NextBelow(5)});
        }
      }
    }

    std::barrier round_barrier(kProducers);
    std::atomic<bool> done{false};
    std::thread copier([&] {
      std::shared_ptr<const AggregateRegistry> held;
      std::vector<double> held_answers;
      Tick held_at = 0;
      uint32_t shard = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto merged = (*engine)->Snapshot();
        ASSERT_TRUE(merged.ok()) << merged.status().message();
        EXPECT_LE(merged->KeyCount(), kProducers * kKeysPerProducer);
        AggregateRegistry registry = std::move(*merged).ReleaseRegistry();
        EXPECT_TRUE(registry.AuditInvariants().ok());
        if (held == nullptr) {
          held = (*engine)->ShardSnapshot(shard);
          ASSERT_NE(held, nullptr);
          held_at = held->now();
          for (uint64_t key = 0; key < kProducers * kKeysPerProducer; ++key) {
            held_answers.push_back(held->Query(key, held_at));
          }
        } else {
          // The held copy still answers as it did, whatever ingest did since.
          for (uint64_t key = 0; key < held_answers.size(); ++key) {
            EXPECT_EQ(held->Query(key, held_at), held_answers[key])
                << "key=" << key;
          }
          held = nullptr;
          held_answers.clear();
          shard = (shard + 1) % (*engine)->shards();
        }
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        auto session = (*engine)->NewProducer();
        ASSERT_TRUE(session.ok());
        for (int r = 0; r < kRounds; ++r) {
          EXPECT_TRUE((*session)->AddBatch(schedule[p][r]).ok());
          EXPECT_TRUE((*session)->Flush().ok());
          round_barrier.arrive_and_wait();
        }
      });
    }
    for (auto& thread : producers) thread.join();
    done.store(true, std::memory_order_release);
    copier.join();
    ASSERT_TRUE((*engine)->Flush().ok());

    auto reference = AggregateRegistry::Create(config.decay, options.registry);
    ASSERT_TRUE(reference.ok());
    for (int r = 0; r < kRounds; ++r) {
      for (int p = 0; p < kProducers; ++p) {
        for (const KeyedItem& item : schedule[p][r]) {
          reference->Update(item.key, item.t, item.value);
        }
      }
    }
    auto merged = (*engine)->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    std::string merged_blob;
    ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
    std::string reference_blob;
    ASSERT_TRUE(reference->EncodeState(&reference_blob).ok());
    EXPECT_EQ(merged_blob, reference_blob);
  }
}

// The route-epoch protocol under fire: session flushes race explicit
// MigrateSlices calls. A session whose staged
// runs predate a migration must re-partition them at flush — so the final
// state must be byte-identical to a serially-fed registry and conservation
// must hold exactly: zero double-counted (and zero lost) items.
TEST(ShardedEngineTest, SessionFlushesRaceMigrations) {
  constexpr int kProducers = 4;
  constexpr int kRounds = 30;
  constexpr int kItemsPerRound = 50;
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kSlices = 64;

  auto decay = PolynomialDecay::Create(1.0).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kWbmh, 0.15);
  options.registry.expiry_weight_floor = -1.0;  // byte-equality oracle
  options.shards = kShards;
  options.route_slices = kSlices;
  options.queue_capacity = 1 << 12;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());

  std::vector<std::vector<std::vector<KeyedItem>>> schedule(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    Rng rng(4000 + p);
    schedule[p].resize(kRounds);
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kItemsPerRound; ++i) {
        const uint64_t key = 1 + p * 64 + rng.NextBelow(48);
        schedule[p][r].push_back(KeyedItem{key, r + 1, rng.NextBelow(5)});
      }
    }
  }

  std::barrier round_barrier(kProducers);
  std::atomic<bool> done{false};
  // Rotate every slice through every shard while producers flush: each
  // successful call publishes a new route generation, so in-flight
  // sessions keep tripping the stale-generation repartition path.
  std::thread migrator([&] {
    uint64_t turn = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint32_t slice = static_cast<uint32_t>(turn % kSlices);
      const uint32_t to = static_cast<uint32_t>((turn / kSlices) % kShards);
      ASSERT_TRUE(
          (*engine)->MigrateSlices(std::vector<uint32_t>{slice}, to).ok());
      ++turn;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto session = (*engine)->NewProducer();
      ASSERT_TRUE(session.ok());
      for (int r = 0; r < kRounds; ++r) {
        // Stage in two halves with a scheduling gap between them so the
        // staged runs routinely straddle a route publish before Flush.
        const auto& batch = schedule[p][r];
        const size_t half = batch.size() / 2;
        const std::span<const KeyedItem> items(batch);
        EXPECT_TRUE((*session)->AddBatch(items.first(half)).ok());
        std::this_thread::yield();
        EXPECT_TRUE((*session)->AddBatch(items.subspan(half)).ok());
        EXPECT_TRUE((*session)->Flush().ok());
        EXPECT_TRUE((*session)->AuditInvariants().ok());
        round_barrier.arrive_and_wait();
      }
    });
  }
  for (auto& thread : producers) thread.join();
  done.store(true, std::memory_order_release);
  migrator.join();
  ASSERT_TRUE((*engine)->Flush().ok());

  // Conservation: the adaptive policy never rejects, so every staged item
  // must be applied exactly once — a double-counted (or dropped) item
  // shifts this total.
  const uint64_t offered =
      uint64_t{kProducers} * kRounds * kItemsPerRound;
  EXPECT_EQ((*engine)->ItemsApplied(), offered);
  const auto totals = (*engine)->SessionTotals();
  EXPECT_EQ(totals.items_staged, offered);
  EXPECT_EQ(totals.items_flushed, offered);
  uint64_t rejected = 0;
  for (const auto& stats : (*engine)->Stats()) rejected += stats.items_rejected;
  EXPECT_EQ(rejected, 0u);

  auto reference = AggregateRegistry::Create(decay, options.registry);
  ASSERT_TRUE(reference.ok());
  for (int r = 0; r < kRounds; ++r) {
    for (int p = 0; p < kProducers; ++p) {
      for (const KeyedItem& item : schedule[p][r]) {
        reference->Update(item.key, item.t, item.value);
      }
    }
  }
  auto merged = (*engine)->Snapshot();
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  std::string merged_blob;
  ASSERT_TRUE(merged->EncodeRegistryState(&merged_blob).ok());
  std::string reference_blob;
  ASSERT_TRUE(reference->EncodeState(&reference_blob).ok());
  EXPECT_EQ(merged_blob, reference_blob);
}

// Oversubscription: 2× more producer sessions than cores, rings far
// smaller than the offered load, the default (infinite) block_deadline.
// Producers must park (not burn a core each) while writers catch up, and
// blocking without a deadline must admit every item exactly once — no
// loss, no duplication, zero rejects.
TEST(ShardedEngineTest, OversubscribedSessionsDontLoseOrDuplicate) {
  const int kProducers =
      2 * std::max(4u, std::thread::hardware_concurrency());
  constexpr int kRounds = 8;
  constexpr int kKeysPerProducer = 8;
  constexpr int kItemsPerRound = 96;

  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh, 0.2);
  options.shards = 2;
  options.queue_capacity = 64;  // far below the per-round offered load
  auto decay = SlidingWindowDecay::Create(1 << 16).value();
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());

  std::vector<std::vector<std::vector<KeyedItem>>> schedule(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    Rng rng(3000 + p);
    schedule[p].resize(kRounds);
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kItemsPerRound; ++i) {
        const uint64_t key =
            p * kKeysPerProducer + rng.NextBelow(kKeysPerProducer);
        schedule[p][r].push_back(KeyedItem{key, r + 1, 1 + rng.NextBelow(4)});
      }
    }
  }

  std::barrier round_barrier(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Mix staging shapes across producers: tiny capacities force
      // mid-round auto-flushes against full rings (same tick, so the
      // per-shard ordering contract still holds).
      ProducerSessionOptions session_options;
      session_options.staging_capacity = (p % 2 == 0) ? 4096 : 48;
      auto session = (*engine)->NewProducer(session_options);
      ASSERT_TRUE(session.ok());
      for (int r = 0; r < kRounds; ++r) {
        if (p % 3 == 0) {
          for (const KeyedItem& item : schedule[p][r]) {
            EXPECT_TRUE((*session)->Add(item.key, item.t, item.value).ok());
          }
        } else {
          EXPECT_TRUE((*session)->AddBatch(schedule[p][r]).ok());
        }
        EXPECT_TRUE((*session)->Flush().ok());
        round_barrier.arrive_and_wait();
      }
      EXPECT_EQ((*session)->staged(), 0u);
      const auto stats = (*session)->stats();
      EXPECT_EQ(stats.items_staged, uint64_t{kRounds} * kItemsPerRound);
      EXPECT_EQ(stats.items_flushed, uint64_t{kRounds} * kItemsPerRound);
      EXPECT_EQ(stats.items_rejected, 0u);
    });
  }
  for (auto& thread : producers) thread.join();
  ASSERT_TRUE((*engine)->Flush().ok());

  // Conservation: every item applied exactly once, none rejected (the
  // adaptive policy has no deadline, so admission always completes).
  const uint64_t expected_items =
      uint64_t{static_cast<uint64_t>(kProducers)} * kRounds * kItemsPerRound;
  EXPECT_EQ((*engine)->ItemsApplied(), expected_items);
  uint64_t rejected = 0;
  uint64_t stall_ceiling = 0;
  for (const auto& stats : (*engine)->Stats()) {
    rejected += stats.items_rejected;
    stall_ceiling = std::max(stall_ceiling, stats.max_queue_stall);
  }
  EXPECT_EQ(rejected, 0u);
  // Stall streaks stay bounded: parked waits reset on progress, so no
  // producer can have been wedged in a single astronomically long streak.
  EXPECT_LT(stall_ceiling, 1u << 20);
  // Engine-wide session accounting closes: every session opened was
  // closed, everything staged was flushed.
  const auto totals = (*engine)->SessionTotals();
  EXPECT_EQ(totals.sessions_opened, static_cast<uint64_t>(kProducers));
  EXPECT_EQ(totals.sessions_closed, static_cast<uint64_t>(kProducers));
  EXPECT_EQ(totals.items_staged, expected_items);
  EXPECT_EQ(totals.items_flushed, expected_items);

  auto reference = AggregateRegistry::Create(decay, options.registry);
  ASSERT_TRUE(reference.ok());
  for (int r = 0; r < kRounds; ++r) {
    for (int p = 0; p < kProducers; ++p) {
      for (const KeyedItem& item : schedule[p][r]) {
        reference->Update(item.key, item.t, item.value);
      }
    }
  }
  for (uint64_t key = 0;
       key < static_cast<uint64_t>(kProducers) * kKeysPerProducer; ++key) {
    EXPECT_DOUBLE_EQ((*engine)->QueryKey(key, kRounds),
                     reference->Query(key, kRounds))
        << "key=" << key;
  }
  EXPECT_EQ((*engine)->KeyCount(), reference->KeyCount());
}

// Writer requests from many threads at once. CaptureCheckpointDeltas and
// EnableCheckpointTracking hold the route lock only shared, so their
// writer requests race each other and point reads on the same shards
// while a producer keeps ingesting. Every request must run exactly once
// on its own caller's behalf: every call succeeds, and every captured
// delta is a well-formed registry blob.
TEST(ShardedEngineTest, ConcurrentWriterRequestsAllComplete) {
  constexpr int kCapturers = 3;
  constexpr int kCaptures = 400;
  auto decay = SlidingWindowDecay::Create(256).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh, 0.1);
  options.shards = 2;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->EnableCheckpointTracking().ok());

  std::atomic<bool> done{false};
  std::thread producer([&] {
    auto session = (*engine)->NewProducer();
    ASSERT_TRUE(session.ok());
    for (Tick t = 1; !done.load(std::memory_order_acquire); ++t) {
      for (uint64_t key = 0; key < 64; ++key) {
        ASSERT_TRUE((*session)->Add(key, t, 1 + key % 3).ok());
      }
      ASSERT_TRUE((*session)->Flush().ok());
    }
  });
  std::thread tracker([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE((*engine)->EnableCheckpointTracking().ok());
    }
  });
  std::thread reader([&] {
    for (uint64_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      const double sum = (*engine)->QueryKey(i % 64, 0);
      EXPECT_TRUE(std::isfinite(sum) && sum >= 0.0) << sum;
    }
  });
  std::vector<std::thread> capturers;
  for (int c = 0; c < kCapturers; ++c) {
    capturers.emplace_back([&] {
      const std::vector<uint64_t> since((*engine)->shards(), 0);
      std::vector<ShardedAggregateEngine::ShardCheckpointDelta> deltas;
      for (int i = 0; i < kCaptures; ++i) {
        ASSERT_TRUE((*engine)->CaptureCheckpointDeltas(since, &deltas).ok());
        ASSERT_EQ(deltas.size(), (*engine)->shards());
        for (uint32_t s = 0; s < deltas.size(); ++s) {
          EXPECT_EQ(deltas[s].shard, s);
          EXPECT_GT(deltas[s].delta.epoch, 0u);
          auto decoded = AggregateRegistry::Decode(decay, options.registry,
                                                   deltas[s].delta.blob);
          ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
          EXPECT_EQ(decoded->KeyCount(), deltas[s].delta.dirty_count);
        }
      }
    });
  }
  for (auto& thread : capturers) thread.join();
  done.store(true, std::memory_order_release);
  producer.join();
  tracker.join();
  reader.join();
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->KeyCount(), 64u);
}

TEST(ShardedEngineTest, SnapshotReflectsFlushedItems) {
  auto decay = SlidingWindowDecay::Create(512).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh, 0.1);
  options.shards = 2;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());

  auto session = (*engine)->NewProducer();
  ASSERT_TRUE(session.ok());
  auto reference = AggregateRegistry::Create(decay, options.registry);
  ASSERT_TRUE(reference.ok());
  for (Tick t = 1; t <= 100; ++t) {
    for (uint64_t key = 0; key < 10; ++key) {
      ASSERT_TRUE((*session)->Add(key, t, key + 1).ok());
      reference->Update(key, t, key + 1);
    }
  }
  ASSERT_TRUE((*session)->Flush().ok());
  ASSERT_TRUE((*engine)->Flush().ok());

  size_t snapshot_keys = 0;
  for (uint32_t shard = 0; shard < (*engine)->shards(); ++shard) {
    const auto snapshot = (*engine)->ShardSnapshot(shard);
    ASSERT_NE(snapshot, nullptr);
    snapshot_keys += snapshot->KeyCount();
  }
  EXPECT_EQ(snapshot_keys, 10u);
  for (uint64_t key = 0; key < 10; ++key) {
    EXPECT_DOUBLE_EQ((*engine)->QueryKey(key, 100),
                     reference->Query(key, 100));
  }
}

TEST(ShardedEngineTest, DestructorDrainsPendingItems) {
  auto decay = SlidingWindowDecay::Create(64).value();
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kCeh, 0.25);
  options.shards = 3;
  options.queue_capacity = 256;
  auto engine = ShardedAggregateEngine::Create(decay, options);
  ASSERT_TRUE(engine.ok());
  std::vector<KeyedItem> items;
  for (int i = 0; i < 10000; ++i) {
    items.push_back(KeyedItem{static_cast<uint64_t>(i % 97), 1, 1});
  }
  {
    auto session = (*engine)->NewProducer();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->AddBatch(items).ok());
    // Session destructor flushes the staged remainder best-effort.
  }
  // Destroy without Flush: the writers must drain and join cleanly.
  engine.value().reset();
}

TEST(ShardedEngineTest, CreateValidates) {
  auto decay = SlidingWindowDecay::Create(64).value();
  ShardedAggregateEngine::Options options;
  options.shards = 0;
  EXPECT_FALSE(ShardedAggregateEngine::Create(decay, options).ok());
  options.shards = 2;
  options.queue_capacity = 0;
  EXPECT_FALSE(ShardedAggregateEngine::Create(decay, options).ok());
  options.queue_capacity = 16;
  EXPECT_FALSE(ShardedAggregateEngine::Create(nullptr, options).ok());
  EXPECT_TRUE(ShardedAggregateEngine::Create(decay, options).ok());
}

}  // namespace
}  // namespace tds
