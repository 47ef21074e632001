// Point-read differential tests: QueryKey, QueryTotal and KeyCount are
// served from the live shard registries (QueryKey/QueryTotal on the shard
// writers, KeyCount from the occupancy mirrors), while Snapshot() encodes
// every shard and folds the decoded copies. After a Flush() both paths see
// the same cut, so the point reads must equal the merged snapshot's answers
// bit for bit — after plain ingest, a migration, a Restore, a standby
// Promote(), and Stop().
//
// QueryTotal is a float sum: the engine adds per-shard sums, the merged
// snapshot adds every key in one pass. Under the sliding window every
// per-key answer is a small dyadic rational, so both orders are exact and
// the totals compare bit for bit; under polynomial decay they compare to a
// relative 1e-12 instead.
#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/merged_snapshot.h"
#include "engine/standby.h"
#include "engine_test_util.h"
#include "util/random.h"

namespace tds {
namespace {

struct ReadCase {
  const char* label;
  Backend backend;
  DecayPtr decay;
  bool exact_total;  ///< per-key answers dyadic: totals compare bit for bit
};

std::vector<ReadCase> Cases() {
  return {
      {"ceh-sliwin", Backend::kCeh, SlidingWindowDecay::Create(512).value(),
       true},
      {"wbmh-poly", Backend::kWbmh, PolynomialDecay::Create(1.0).value(),
       false},
  };
}

ShardedAggregateEngine::Options EngineOptions(const ReadCase& rc) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = AggregateOptions::Builder()
                                   .backend(rc.backend)
                                   .epsilon(0.15)
                                   .Build()
                                   .value();
  options.shards = 3;
  options.route_slices = 24;
  return options;
}

constexpr uint64_t kKeys = 120;

/// Random items over kKeys keys from tick `start`, closed by one item per
/// key at the final tick so every shard's clock reaches the same cut. (A
/// WBMH shard whose clock lags the cut evaluates on its own, less advanced
/// shared layout, while the merged snapshot advances every layout to the
/// cut: both are valid estimates, but not the same bits.)
std::vector<KeyedItem> Stream(uint64_t seed, Tick start, int count,
                              Tick* end) {
  Rng rng(seed);
  std::vector<KeyedItem> items;
  Tick t = start;
  for (int i = 0; i < count; ++i) {
    if (rng.NextBelow(4) == 0) ++t;
    items.push_back(KeyedItem{rng.NextBelow(kKeys), t, 1 + rng.NextBelow(3)});
  }
  ++t;
  for (uint64_t key = 0; key < kKeys; ++key) {
    items.push_back(KeyedItem{key, t, 1});
  }
  *end = t;
  return items;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Every point read against a merged snapshot of the same (flushed) cut,
/// at the cut and past it. Keys beyond kKeys are absent everywhere.
void ExpectReadsMatchSnapshot(ShardedAggregateEngine& engine,
                              const ReadCase& rc) {
  auto merged = engine.Snapshot();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_GT(merged->KeyCount(), 0u);
  EXPECT_EQ(engine.KeyCount(), merged->KeyCount());
  for (const Tick now : {merged->cut(), merged->cut() + 37}) {
    for (uint64_t key = 0; key < kKeys + 8; ++key) {
      EXPECT_EQ(Bits(engine.QueryKey(key, now)),
                Bits(merged->Query(key, now)))
          << "key=" << key << " now=" << now;
    }
    const double total = engine.QueryTotal(now);
    const double expected = merged->QueryTotal(now);
    if (rc.exact_total) {
      EXPECT_EQ(Bits(total), Bits(expected)) << "now=" << now;
    } else {
      EXPECT_LE(std::abs(total - expected), 1e-12 * std::abs(expected))
          << "now=" << now;
    }
  }
}

TEST(EngineReadTest, PointReadsMatchMergedSnapshotAfterIngest) {
  for (const ReadCase& rc : Cases()) {
    SCOPED_TRACE(rc.label);
    auto engine = ShardedAggregateEngine::Create(rc.decay, EngineOptions(rc));
    ASSERT_TRUE(engine.ok());
    Tick end = 0;
    ASSERT_TRUE(SessionIngest(**engine, Stream(11, 1, 5000, &end)).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    ExpectReadsMatchSnapshot(**engine, rc);
  }
}

// When shard clocks differ at the cut, a point read is the owning shard's
// own view at max(now, shard clock): bit-identical to a decoded copy of
// that shard, the read path the engine used before point reads were served
// live.
TEST(EngineReadTest, PointReadsMatchOwningShardWhenClocksLag) {
  for (const ReadCase& rc : Cases()) {
    SCOPED_TRACE(rc.label);
    auto engine = ShardedAggregateEngine::Create(rc.decay, EngineOptions(rc));
    ASSERT_TRUE(engine.ok());
    // Dense, large values on a few keys, so WBMH merges re-round.
    Rng rng(18);
    std::vector<KeyedItem> items;
    const Tick end = 600;
    for (Tick t = 1; t <= end; ++t) {
      for (uint64_t key = 0; key < 12; ++key) {
        items.push_back({key, t, 1 + rng.NextBelow(5000)});
      }
    }
    ASSERT_TRUE(SessionIngest(**engine, items).ok());
    // Only half of shard 0's keys see the last stretch of ticks: shard 0's
    // clock leads the others, and its untouched keys fall behind its
    // shared layout.
    std::vector<KeyedItem> tail;
    for (Tick t = end + 1; t <= end + 200; ++t) {
      for (uint64_t key = 0; key < 12; ++key) {
        if ((*engine)->RouteForKey(key) == 0 && key % 2 == 0) {
          tail.push_back({key, t, 1 + rng.NextBelow(5000)});
        }
      }
    }
    ASSERT_TRUE(SessionIngest(**engine, tail).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    // Read first: encoding a shard syncs its counters.
    const std::vector<Tick> nows = {end, end + 200, end + 300};
    std::vector<double> reads;
    for (const Tick now : nows) {
      for (uint64_t key = 0; key < 12; ++key) {
        reads.push_back((*engine)->QueryKey(key, now));
      }
    }
    std::vector<std::shared_ptr<const AggregateRegistry>> copies;
    for (uint32_t shard = 0; shard < (*engine)->shards(); ++shard) {
      copies.push_back((*engine)->ShardSnapshot(shard));
      ASSERT_NE(copies.back(), nullptr);
    }
    EXPECT_GT(copies[0]->now(), copies[1]->now());
    size_t i = 0;
    for (const Tick now : nows) {
      for (uint64_t key = 0; key < 12; ++key) {
        const AggregateRegistry& copy = *copies[(*engine)->RouteForKey(key)];
        EXPECT_EQ(Bits(reads[i++]),
                  Bits(copy.Query(key, std::max(now, copy.now()))))
            << "key=" << key << " now=" << now;
      }
    }
  }
}

TEST(EngineReadTest, PointReadsMatchMergedSnapshotAfterMigration) {
  for (const ReadCase& rc : Cases()) {
    SCOPED_TRACE(rc.label);
    auto engine = ShardedAggregateEngine::Create(rc.decay, EngineOptions(rc));
    ASSERT_TRUE(engine.ok());
    Tick end = 0;
    ASSERT_TRUE(SessionIngest(**engine, Stream(12, 1, 5000, &end)).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    std::vector<uint32_t> slices;
    for (uint32_t s = 0; s < (*engine)->route_slices(); s += 2) {
      slices.push_back(s);
    }
    ASSERT_TRUE((*engine)->MigrateSlices(slices, 0).ok());
    ASSERT_GE((*engine)->Rebalances(), 1u);
    ExpectReadsMatchSnapshot(**engine, rc);
    // Ingest keeps landing on the new owners.
    ASSERT_TRUE(SessionIngest(**engine, Stream(13, end, 2000, &end)).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    ExpectReadsMatchSnapshot(**engine, rc);
  }
}

TEST(EngineReadTest, PointReadsMatchMergedSnapshotAfterRestore) {
  for (const ReadCase& rc : Cases()) {
    SCOPED_TRACE(rc.label);
    auto source = ShardedAggregateEngine::Create(rc.decay, EngineOptions(rc));
    ASSERT_TRUE(source.ok());
    Tick end = 0;
    ASSERT_TRUE(SessionIngest(**source, Stream(14, 1, 5000, &end)).ok());
    ASSERT_TRUE((*source)->Flush().ok());
    auto checkpoint = (*source)->Snapshot();
    ASSERT_TRUE(checkpoint.ok());
    auto restored =
        ShardedAggregateEngine::Create(rc.decay, EngineOptions(rc));
    ASSERT_TRUE(restored.ok());
    ASSERT_TRUE(
        (*restored)->Restore(std::move(*checkpoint).ReleaseRegistry()).ok());
    ExpectReadsMatchSnapshot(**restored, rc);
    for (uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(Bits((*restored)->QueryKey(key, end)),
                Bits((*source)->QueryKey(key, end)))
          << "key=" << key;
    }
  }
}

TEST(EngineReadTest, PointReadsMatchMergedSnapshotAfterPromote) {
  for (const ReadCase& rc : Cases()) {
    SCOPED_TRACE(rc.label);
    const std::string dir =
        ::testing::TempDir() + "tds_read_promote_" + rc.label;
    std::filesystem::remove_all(dir);
    Tick end = 0;
    {
      auto primary =
          ShardedAggregateEngine::Create(rc.decay, EngineOptions(rc));
      ASSERT_TRUE(primary.ok());
      ASSERT_TRUE((*primary)->EnableCheckpointTracking().ok());
      auto log = CheckpointLog::Create(**primary, dir, {});
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      ASSERT_TRUE(SessionIngest(**primary, Stream(15, 1, 4000, &end)).ok());
      ASSERT_TRUE(log->WriteIncremental().ok());
      ASSERT_TRUE(SessionIngest(**primary, Stream(16, end, 2000, &end)).ok());
      ASSERT_TRUE(log->WriteIncremental().ok());
    }
    auto follower = StandbyFollower::Create(
        rc.decay, EngineOptions(rc).registry, dir);
    ASSERT_TRUE(follower.ok());
    auto promoted = follower->Promote(EngineOptions(rc));
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    ExpectReadsMatchSnapshot(**promoted, rc);
    std::filesystem::remove_all(dir);
  }
}

TEST(EngineReadTest, PointReadsMatchMergedSnapshotAfterStop) {
  for (const ReadCase& rc : Cases()) {
    SCOPED_TRACE(rc.label);
    auto engine = ShardedAggregateEngine::Create(rc.decay, EngineOptions(rc));
    ASSERT_TRUE(engine.ok());
    Tick end = 0;
    ASSERT_TRUE(SessionIngest(**engine, Stream(17, 1, 5000, &end)).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    std::vector<double> before;
    for (uint64_t key = 0; key < kKeys; ++key) {
      before.push_back((*engine)->QueryKey(key, end));
    }
    (*engine)->Stop();
    // Reads now run inline on this thread against the final state.
    ExpectReadsMatchSnapshot(**engine, rc);
    for (uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(Bits((*engine)->QueryKey(key, end)), Bits(before[key]))
          << "key=" << key;
    }
    EXPECT_NE((*engine)->ShardSnapshot(0), nullptr);
  }
}

}  // namespace
}  // namespace tds
