// Warm-standby follower tests (engine/standby.h): the follower tails the
// checkpoint log's manifest, catches up in time proportional to what was
// committed since its last apply, rebuilds when a full commit replaces
// the history underneath it, serves its last consistent view across injected apply
// faults, and promotes to an engine byte-identical to the primary's last
// committed checkpoint — including after crashes at every failpoint.
#include "engine/standby.h"

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
#include "engine_test_util.h"
#include "util/failpoint.h"
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

struct EngineCase {
  const char* label;
  Backend backend;
  DecayPtr decay;
};

std::vector<EngineCase> Cases() {
  return {
      {"ceh-sliwin", Backend::kCeh, SlidingWindowDecay::Create(512).value()},
      {"wbmh-poly", Backend::kWbmh, PolynomialDecay::Create(1.0).value()},
  };
}

ShardedAggregateEngine::Options EngineOptions(const EngineCase& ec) {
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(ec.backend, 0.15);
  options.shards = 3;
  options.route_slices = 24;
  return options;
}

std::unique_ptr<ShardedAggregateEngine> MakeTrackedEngine(
    const EngineCase& ec) {
  auto engine = ShardedAggregateEngine::Create(ec.decay, EngineOptions(ec));
  EXPECT_TRUE(engine.ok());
  EXPECT_TRUE((*engine)->EnableCheckpointTracking().ok());
  return std::move(engine).value();
}

std::vector<KeyedItem> Stream(uint64_t phase, Tick start_tick, int count,
                              Tick* end_tick) {
  Rng rng(8200 + phase);
  std::vector<KeyedItem> items;
  Tick t = start_tick;
  for (int i = 0; i < count; ++i) {
    if (rng.NextBelow(4) == 0) ++t;
    items.push_back(KeyedItem{rng.NextBelow(80), t, 1 + rng.NextBelow(3)});
  }
  *end_tick = t;
  return items;
}

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tds_standby_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string MergedBlob(ShardedAggregateEngine& engine) {
  auto merged = engine.Snapshot();
  EXPECT_TRUE(merged.ok());
  std::string blob;
  EXPECT_TRUE(merged->EncodeRegistryState(&blob).ok());
  return blob;
}

CheckpointLog MakeLog(ShardedAggregateEngine& engine, const std::string& dir,
                      const CheckpointLog::Options& options = {}) {
  auto log = CheckpointLog::Create(engine, dir, options);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return std::move(log).value();
}

StandbyFollower MakeFollower(const EngineCase& ec, const std::string& dir) {
  auto follower =
      StandbyFollower::Create(ec.decay, EngineOptions(ec).registry, dir);
  EXPECT_TRUE(follower.ok()) << follower.status().ToString();
  return std::move(follower).value();
}

TEST(StandbyTest, EmptyDirectoryIsNotAnError) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("empty");
  std::filesystem::create_directories(dir);
  auto follower = MakeFollower(ec, dir);
  EXPECT_TRUE(follower.ApplyNew().ok());
  EXPECT_EQ(follower.applied_generation(), 0u);
  EXPECT_EQ(follower.KeyCount(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(StandbyTest, FollowerTracksPrimaryThroughIncrementalApplies) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("tail_") + ec.label);
    auto primary = MakeTrackedEngine(ec);
    auto log = MakeLog(*primary, dir);
    auto follower = MakeFollower(ec, dir);

    Tick t = 1;
    for (uint64_t round = 0; round < 4; ++round) {
      ASSERT_TRUE(SessionIngest(*primary, Stream(round, t, 1500, &t)).ok());
      ASSERT_TRUE(log.WriteIncremental().ok());
      ASSERT_TRUE(follower.ApplyNew().ok());
      EXPECT_EQ(follower.applied_generation(), log.manifest().generation);
      EXPECT_EQ(follower.KeyCount(), primary->KeyCount());
      // The follower serves const reads (no representation advance), so
      // WBMH answers may differ from the primary's advancing query path
      // within the accuracy bound; byte-identity is checked at promotion.
      const double total = primary->QueryTotal(t);
      EXPECT_NEAR(follower.QueryTotal(t), total, 0.2 * total + 1e-9);
      for (uint64_t key = 0; key < 80; key += 9) {
        const double expected = primary->QueryKey(key, t);
        EXPECT_NEAR(follower.Query(key, t), expected, 0.2 * expected + 1e-9)
            << "key=" << key;
      }
    }
    // Promotion: the follower's state becomes a live engine byte-identical
    // to the primary's last committed checkpoint.
    const std::string committed = MergedBlob(*primary);
    auto promoted = follower.Promote(EngineOptions(ec));
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_EQ(MergedBlob(**promoted), committed);
    std::filesystem::remove_all(dir);
  }
}

TEST(StandbyTest, ApplyIsIdempotentWhenNothingNewCommitted) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("idempotent");
  auto primary = MakeTrackedEngine(ec);
  auto log = MakeLog(*primary, dir);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*primary, Stream(10, t, 1000, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());

  auto follower = MakeFollower(ec, dir);
  ASSERT_TRUE(follower.ApplyNew().ok());
  const double total = follower.QueryTotal(t);
  ASSERT_TRUE(follower.ApplyNew().ok());
  ASSERT_TRUE(follower.ApplyNew().ok());
  EXPECT_EQ(follower.applied_generation(), 1u);
  EXPECT_DOUBLE_EQ(follower.QueryTotal(t), total);
  std::filesystem::remove_all(dir);
}

TEST(StandbyTest, FollowerSurvivesCompactionRewritingHistory) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("compaction_") + ec.label);
    auto primary = MakeTrackedEngine(ec);
    CheckpointLog::Options options;
    options.compact_min_segments = 0;
    auto log = MakeLog(*primary, dir, options);
    auto follower = MakeFollower(ec, dir);

    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*primary, Stream(20, t, 1000, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    ASSERT_TRUE(follower.ApplyNew().ok());

    // The primary writes more, then compacts: the full generation replaces
    // the generations the follower already applied, forcing the rebuild
    // path.
    ASSERT_TRUE(SessionIngest(*primary, Stream(21, t, 1000, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    ASSERT_TRUE(log.Compact().ok());
    ASSERT_TRUE(follower.ApplyNew().ok());
    EXPECT_EQ(follower.applied_generation(), log.manifest().generation);

    // Then an ordinary incremental lands on top of the rebuilt view.
    ASSERT_TRUE(SessionIngest(*primary, Stream(22, t, 1000, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    ASSERT_TRUE(follower.ApplyNew().ok());

    const std::string committed = MergedBlob(*primary);
    auto promoted = follower.Promote(EngineOptions(ec));
    ASSERT_TRUE(promoted.ok());
    EXPECT_EQ(MergedBlob(**promoted), committed);
    std::filesystem::remove_all(dir);
  }
}

TEST(StandbyTest, FailedApplyLeavesLastConsistentView) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("apply_fault");
  auto primary = MakeTrackedEngine(ec);
  auto log = MakeLog(*primary, dir);
  auto follower = MakeFollower(ec, dir);

  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*primary, Stream(30, t, 1000, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  ASSERT_TRUE(follower.ApplyNew().ok());
  const Tick t_view = t;
  const double view_total = follower.QueryTotal(t_view);
  const size_t view_keys = follower.KeyCount();

  ASSERT_TRUE(SessionIngest(*primary, Stream(31, t, 1000, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());

  // The injected fault fails the apply; the follower keeps serving its
  // generation-1 view as if the new manifest had never been seen.
  failpoint::ArmNthHit("standby.apply", 1);
  EXPECT_EQ(follower.ApplyNew().code(), StatusCode::kUnavailable);
  EXPECT_EQ(follower.applied_generation(), 1u);
  EXPECT_EQ(follower.KeyCount(), view_keys);
  EXPECT_DOUBLE_EQ(follower.QueryTotal(t_view), view_total);
  failpoint::DisarmAll();

  // Cleared, the follower catches up and promotion matches the primary.
  ASSERT_TRUE(follower.ApplyNew().ok());
  EXPECT_EQ(follower.applied_generation(), 2u);
  const std::string committed = MergedBlob(*primary);
  auto promoted = follower.Promote(EngineOptions(ec));
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(MergedBlob(**promoted), committed);
  std::filesystem::remove_all(dir);
}

TEST(StandbyTest, PromotedEngineResumesIngestByteIdentical) {
  // The acceptance scenario: checkpoint → crash → Promote() → feed the
  // tail — the promoted engine must end byte-identical to one restored
  // from the same checkpoint that never failed over.
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("resume_") + ec.label);
    Tick t1 = 0;
    Tick scratch = 0;
    const auto first = Stream(40, 1, 3000, &t1);
    const auto second = Stream(41, t1, 3000, &scratch);

    {
      auto primary = MakeTrackedEngine(ec);
      auto log = MakeLog(*primary, dir);
      ASSERT_TRUE(SessionIngest(*primary, first).ok());
      ASSERT_TRUE(log.WriteIncremental().ok());
    }  // primary crashes; everything after the checkpoint is lost

    auto reference = ShardedAggregateEngine::Create(ec.decay,
                                                    EngineOptions(ec));
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(RestoreFromCheckpointLog(**reference, dir).ok());
    ASSERT_TRUE(SessionIngest(**reference, second).ok());
    ASSERT_TRUE((*reference)->Flush().ok());

    auto follower = MakeFollower(ec, dir);
    auto promoted = follower.Promote(EngineOptions(ec));
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    ASSERT_TRUE(SessionIngest(**promoted, second).ok());
    ASSERT_TRUE((*promoted)->Flush().ok());
    EXPECT_EQ(MergedBlob(**promoted), MergedBlob(**reference));
    std::filesystem::remove_all(dir);
  }
}

TEST(StandbyTest, FailoverAfterCrashAtEveryFailpoint) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  const EngineCase ec = Cases()[0];
  failpoint::Scenario sticky;
  sticky.fire_on_hit = 1;
  sticky.sticky = true;

  // For each failpoint: the primary commits once, a fault kills its next
  // operation, and failover must promote exactly the committed state.
  const char* kFaults[] = {"ckptlog.segment.write", "ckptlog.manifest.commit",
                           "ckptlog.compact"};
  for (const char* fp : kFaults) {
    SCOPED_TRACE(fp);
    const std::string dir = TempDir(std::string("failover_") +
                                    (fp + sizeof("ckptlog.") - 1));
    auto primary = MakeTrackedEngine(ec);
    CheckpointLog::Options options;
    options.io_retries = 1;
    options.backoff.sleeper = [](std::chrono::nanoseconds) {};
    options.compact_min_segments = 0;
    auto log = MakeLog(*primary, dir, options);

    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*primary, Stream(50, t, 1200, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    const std::string committed = MergedBlob(*primary);

    ASSERT_TRUE(SessionIngest(*primary, Stream(51, t, 600, &t)).ok());
    failpoint::Arm(fp, sticky);
    if (std::string(fp) == "ckptlog.compact") {
      EXPECT_EQ(log.Compact().code(), StatusCode::kUnavailable);
    } else {
      EXPECT_EQ(log.WriteIncremental().code(), StatusCode::kUnavailable);
    }
    failpoint::DisarmAll();

    auto follower = MakeFollower(ec, dir);
    ASSERT_TRUE(follower.ApplyNew().ok());
    auto promoted = follower.Promote(EngineOptions(ec));
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_EQ(MergedBlob(**promoted), committed);
    std::filesystem::remove_all(dir);
  }
}

TEST(StandbyTest, PromoteConsumesTheFollower) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("consumed");
  auto primary = MakeTrackedEngine(ec);
  auto log = MakeLog(*primary, dir);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*primary, Stream(60, t, 500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());

  auto follower = MakeFollower(ec, dir);
  auto promoted = follower.Promote(EngineOptions(ec));
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(follower.ApplyNew().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(follower.Promote(EngineOptions(ec)).status().code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

// The primary restarts without restoring and reopens the log: its first
// commit is a full one that replaces the history, with no dead keys for
// the old keys. A follower that tailed the old history must rebuild onto
// the new engine's state instead of applying that generation on top.
TEST(StandbyTest, FollowerRebuildsOntoLogReopenedByAnotherEngine) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("reopened_") + ec.label);
    auto follower = MakeFollower(ec, dir);
    {
      auto old_primary = MakeTrackedEngine(ec);
      auto log = MakeLog(*old_primary, dir);
      Tick t = 1;
      for (uint64_t round = 0; round < 2; ++round) {
        ASSERT_TRUE(
            SessionIngest(*old_primary, Stream(70 + round, t, 1000, &t)).ok());
        ASSERT_TRUE(log.WriteIncremental().ok());
        ASSERT_TRUE(follower.ApplyNew().ok());
      }
      ASSERT_EQ(follower.applied_generation(), 2u);
    }
    auto primary = MakeTrackedEngine(ec);
    std::vector<KeyedItem> items;
    for (uint64_t i = 0; i < 40; ++i) {
      items.push_back(KeyedItem{1000 + i, 1 + static_cast<Tick>(i / 8), 2});
    }
    ASSERT_TRUE(SessionIngest(*primary, items).ok());
    auto log = MakeLog(*primary, dir);
    ASSERT_TRUE(log.WriteIncremental().ok());
    ASSERT_TRUE(follower.ApplyNew().ok());
    EXPECT_EQ(follower.applied_generation(), 3u);
    EXPECT_EQ(follower.KeyCount(), primary->KeyCount());
    auto promoted = follower.Promote(EngineOptions(ec));
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_EQ(MergedBlob(**promoted), MergedBlob(*primary));
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace tds
