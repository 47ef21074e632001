// Deterministic fault-injection tests (util/failpoint.h): every injected
// failure must surface as a clean Status — never a crash, a hang, or an
// audit violation — and the engine must keep serving and recover fully
// once the fault clears. Run under ASan+UBSan by `tools/check.sh faults`
// (-DTDS_FAILPOINTS=ON); in a normal build the scenario tests skip.
#include "util/failpoint.h"

#include <chrono>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "engine_test_util.h"
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

class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
    }
    failpoint::DisarmAll();
  }
  void TearDown() override { failpoint::DisarmAll(); }

  /// A small deterministic engine with data on every shard, plus the
  /// QueryKey values it serves before any fault — the recovery oracle.
  struct Fixture {
    std::unique_ptr<ShardedAggregateEngine> engine;
    std::vector<double> expected;  // QueryKey(key, tick) for key < kKeys
    Tick tick = 0;
  };
  static constexpr uint64_t kKeys = 60;

  static Fixture MakeEngine(Backend backend, DecayPtr decay) {
    ShardedAggregateEngine::Options options;
    options.registry = RegistryOptions(backend, 0.15);
    options.shards = 3;
    options.route_slices = 24;
    Fixture fx;
    auto engine = ShardedAggregateEngine::Create(std::move(decay), options);
    EXPECT_TRUE(engine.ok());
    fx.engine = std::move(engine).value();
    Rng rng(42);
    std::vector<KeyedItem> items;
    Tick t = 1;
    for (int i = 0; i < 4000; ++i) {
      if (rng.NextBelow(4) == 0) ++t;
      items.push_back(KeyedItem{rng.NextBelow(kKeys), t, 1 + rng.NextBelow(3)});
    }
    EXPECT_TRUE(SessionIngest(*fx.engine, items).ok());
    EXPECT_TRUE(fx.engine->Flush().ok());
    fx.tick = t;
    for (uint64_t key = 0; key < kKeys; ++key) {
      fx.expected.push_back(fx.engine->QueryKey(key, t));
    }
    return fx;
  }

  static void ExpectServesExpected(Fixture& fx) {
    for (uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_DOUBLE_EQ(fx.engine->QueryKey(key, fx.tick), fx.expected[key])
          << "key=" << key;
    }
  }

  /// Merged snapshot decodes cleanly and passes the full structural audit.
  static void ExpectAuditClean(Fixture& fx) {
    auto merged = fx.engine->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    AggregateRegistry registry = std::move(*merged).ReleaseRegistry();
    EXPECT_TRUE(registry.AuditInvariants().ok());
  }
};

TEST_F(EngineFaultTest, EncodeFailureFailsSnapshotsButNotPointReads) {
  Fixture fx = MakeEngine(Backend::kCeh, SlidingWindowDecay::Create(512).value());
  failpoint::Arm("registry.copy", {.fire_on_hit = 1, .sticky = true});
  // Point reads never copy: they keep serving the live registry through
  // the outage. Full copies report a clean failure — and nothing crashes
  // or hangs.
  EXPECT_DOUBLE_EQ(fx.engine->QueryKey(3, fx.tick), fx.expected[3]);
  EXPECT_EQ(fx.engine->ShardSnapshot(0), nullptr);
  auto merged = fx.engine->Snapshot();
  EXPECT_FALSE(merged.ok());
  EXPECT_GE(failpoint::Fires("registry.copy"), 1u);
  // Ingest keeps working through the outage, and everything recovers once
  // the fault clears.
  EXPECT_TRUE(SessionIngest(*fx.engine, 3, fx.tick, 0).ok());
  EXPECT_TRUE(fx.engine->Flush().ok());
  ExpectServesExpected(fx);
  failpoint::DisarmAll();
  ExpectServesExpected(fx);
  ExpectAuditClean(fx);
}

TEST_F(EngineFaultTest, DecodeFailureFailsSnapshotsButNotPointReads) {
  Fixture fx = MakeEngine(Backend::kWbmh, PolynomialDecay::Create(1.0).value());
  failpoint::Arm("registry.copy", {.fire_on_hit = 1, .sticky = true});
  EXPECT_DOUBLE_EQ(fx.engine->QueryKey(3, fx.tick), fx.expected[3]);
  EXPECT_EQ(fx.engine->ShardSnapshot(0), nullptr);
  EXPECT_FALSE(fx.engine->Snapshot().ok());
  ExpectServesExpected(fx);
  failpoint::DisarmAll();
  ExpectServesExpected(fx);
  ExpectAuditClean(fx);
}

TEST_F(EngineFaultTest, TransientDecodeFailureAffectsOneShardOnly) {
  Fixture fx = MakeEngine(Backend::kCeh, SlidingWindowDecay::Create(512).value());
  // Fire on the first copy only. ShardSnapshot copies shard by shard: the
  // first shard's copy is null, the others succeed.
  failpoint::ArmNthHit("registry.copy", 1);
  size_t null_snapshots = 0;
  for (uint32_t shard = 0; shard < fx.engine->shards(); ++shard) {
    if (fx.engine->ShardSnapshot(shard) == nullptr) ++null_snapshots;
  }
  EXPECT_EQ(null_snapshots, 1u);
  failpoint::DisarmAll();
  ExpectServesExpected(fx);
}

// Snapshots copy structurally and never run the codec, so a codec outage
// leaves them serving; the checkpoint commit, which must encode, fails
// cleanly and succeeds once the fault clears.
TEST_F(EngineFaultTest, CodecFaultsLeaveSnapshotsServing) {
  Fixture fx = MakeEngine(Backend::kCeh, SlidingWindowDecay::Create(512).value());
  ASSERT_TRUE(fx.engine->EnableCheckpointTracking().ok());
  const std::string dir = ::testing::TempDir() + "tds_fault_codec_outage";
  std::filesystem::remove_all(dir);
  CheckpointLog::Options log_options;
  log_options.backoff.sleeper = [](std::chrono::nanoseconds) {};
  auto log = CheckpointLog::Create(*fx.engine, dir, log_options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  failpoint::Arm("registry.encode", {.fire_on_hit = 1, .sticky = true});
  failpoint::Arm("registry.decode", {.fire_on_hit = 1, .sticky = true});

  auto merged = fx.engine->Snapshot();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(merged->KeyCount(), 0u);
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_DOUBLE_EQ(merged->Query(key, fx.tick), fx.expected[key])
        << "key=" << key;
  }
  for (uint32_t shard = 0; shard < fx.engine->shards(); ++shard) {
    const auto copy = fx.engine->ShardSnapshot(shard);
    ASSERT_NE(copy, nullptr) << "shard=" << shard;
    for (uint64_t key = 0; key < kKeys; ++key) {
      if (fx.engine->RouteForKey(key) != shard) continue;
      EXPECT_DOUBLE_EQ(copy->Query(key, fx.tick), fx.expected[key])
          << "key=" << key;
    }
  }
  const uint64_t generation = log->manifest().generation;
  const Status written = log->WriteIncremental();
  EXPECT_EQ(written.code(), StatusCode::kUnavailable) << written.ToString();
  EXPECT_EQ(log->manifest().generation, generation);
  EXPECT_GE(failpoint::Fires("registry.encode"), 1u);

  failpoint::DisarmAll();
  EXPECT_TRUE(log->WriteIncremental().ok());
  ExpectServesExpected(fx);
  ExpectAuditClean(fx);
  std::filesystem::remove_all(dir);
}

TEST_F(EngineFaultTest, MigrationExtractFailureLeavesDonorIntact) {
  Fixture fx = MakeEngine(Backend::kCeh, SlidingWindowDecay::Create(512).value());
  failpoint::ArmNthHit("registry.extract", 1);
  std::vector<uint32_t> slices;
  for (uint32_t s = 0; s < fx.engine->route_slices(); ++s) slices.push_back(s);
  const Status status = fx.engine->MigrateSlices(slices, 0);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fx.engine->Rebalances(), 0u);
  ExpectServesExpected(fx);
  ExpectAuditClean(fx);
  // The fault was one-shot: the same migration now succeeds, and state is
  // still exactly what a fault-free engine would serve.
  ASSERT_TRUE(fx.engine->MigrateSlices(slices, 0).ok());
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(fx.engine->RouteForKey(key), 0u);
  }
  ExpectServesExpected(fx);
  ExpectAuditClean(fx);
}

TEST_F(EngineFaultTest, MigrationMergeFailureRollsBackTheDonor) {
  Fixture fx = MakeEngine(Backend::kWbmh, PolynomialDecay::Create(1.0).value());
  failpoint::ArmNthHit("registry.merge", 1);
  std::vector<uint32_t> slices;
  for (uint32_t s = 0; s < fx.engine->route_slices(); ++s) slices.push_back(s);
  // The receiver's MergeFrom fires; the extracted keys must be merged
  // back into the donor (under failpoint suppression) and the route left
  // untouched.
  const Status status = fx.engine->MigrateSlices(slices, 1);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fx.engine->Rebalances(), 0u);
  ExpectServesExpected(fx);
  ExpectAuditClean(fx);
  ASSERT_TRUE(fx.engine->MigrateSlices(slices, 1).ok());
  ExpectServesExpected(fx);
  ExpectAuditClean(fx);
}

TEST_F(EngineFaultTest, MigrateEntryFailpointRefusesCleanly) {
  Fixture fx = MakeEngine(Backend::kCeh, SlidingWindowDecay::Create(512).value());
  failpoint::Arm("engine.migrate", {.fire_on_hit = 1, .sticky = true});
  const std::vector<uint32_t> slices = {0, 1, 2};
  EXPECT_EQ(fx.engine->MigrateSlices(slices, 1).code(),
            StatusCode::kUnavailable);
  failpoint::DisarmAll();
  ExpectServesExpected(fx);
}

TEST_F(EngineFaultTest, RingPushFaultsRetryUnderBlockingPolicy) {
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kExact, 0.1);
  options.shards = 2;
  options.queue_capacity = 128;
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), options);
  ASSERT_TRUE(engine.ok());
  // Every other push attempt (deterministically) sees a "full" ring: the
  // blocking policy must retry through the staged wait and lose nothing.
  failpoint::ArmProbability("engine.ring.push", 0.5, /*seed=*/7);
  std::vector<KeyedItem> items;
  for (int i = 0; i < 5000; ++i) {
    items.push_back(KeyedItem{static_cast<uint64_t>(i % 50), 1, 1});
  }
  ASSERT_TRUE(SessionIngest(**engine, items).ok());
  failpoint::DisarmAll();
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->ItemsApplied(), 5000u);
  EXPECT_DOUBLE_EQ((*engine)->QueryKey(7, 1), 100.0);
}

TEST_F(EngineFaultTest, RingPushStickyFaultRejectsNonBlockingAdmission) {
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kExact, 0.1);
  options.shards = 1;
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), options);
  ASSERT_TRUE(engine.ok());
  failpoint::Arm("engine.ring.push", {.fire_on_hit = 1, .sticky = true});
  // Zero-deadline admission under a sticky fault: one attempt, rejected
  // and counted; the same flush succeeds once the fault clears.
  const KeyedItem item{1, 1, 1};
  const Status status =
      DeadlineIngest(**engine, {&item, 1}, std::chrono::nanoseconds(0));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GE((*engine)->Stats()[0].items_rejected, 1u);
  failpoint::DisarmAll();
  ASSERT_TRUE(
      DeadlineIngest(**engine, {&item, 1}, std::chrono::nanoseconds(0)).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->ItemsApplied(), 1u);
}

TEST_F(EngineFaultTest, ArenaGrowFaultFailsDecodeCleanly) {
  // Registry-level: a snapshot whose decode needs (at least) three slot
  // allocations fails cleanly when the third allocation is refused, and
  // decodes byte-identically once the fault clears.
  const AggregateRegistry::Options options =
      RegistryOptions(Backend::kCeh, 0.1);
  auto decay = SlidingWindowDecay::Create(256).value();
  auto registry = AggregateRegistry::Create(decay, options);
  ASSERT_TRUE(registry.ok());
  for (uint64_t key = 0; key < 16; ++key) {
    registry->Update(key, 1, key + 1);
  }
  std::string blob;
  ASSERT_TRUE(registry->EncodeState(&blob).ok());

  failpoint::ArmNthHit("registry.arena.grow", 3);
  auto failed = AggregateRegistry::Decode(decay, options, blob);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  failpoint::DisarmAll();

  auto decoded = AggregateRegistry::Decode(decay, options, blob);
  ASSERT_TRUE(decoded.ok());
  std::string reencoded;
  ASSERT_TRUE(decoded->EncodeState(&reencoded).ok());
  EXPECT_EQ(reencoded, blob);
  EXPECT_TRUE(decoded->AuditInvariants().ok());
}

TEST_F(EngineFaultTest, SuppressionScopeMasksArmedFailpoints) {
  failpoint::Arm("registry.merge", {.fire_on_hit = 1, .sticky = true});
  {
    failpoint::SuppressionScope suppress;
    EXPECT_FALSE(TDS_FAILPOINT("registry.merge"));
  }
  EXPECT_TRUE(TDS_FAILPOINT("registry.merge"));
}

}  // namespace
}  // namespace tds
