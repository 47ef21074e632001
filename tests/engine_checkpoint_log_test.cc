// Incremental segment/manifest checkpoint tests (engine/checkpoint_log.h):
// round-trips must be byte-identical to the engine's own snapshot blob,
// incremental bytes must scale with churn rather than population,
// compaction (a full commit) must not change the recovered state, every
// torn-file shape — truncation, bit flips, a crash between the commit
// renames — must be detected instead of loading garbage, and every
// injected fault — segment write, manifest commit, compaction — must leave
// the previous manifest generation fully loadable.
#include "engine/checkpoint_log.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_io.h"
#include "engine/engine.h"
#include "engine/standby.h"
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

std::unique_ptr<ShardedAggregateEngine> MakeEngine(const EngineCase& ec) {
  auto engine = ShardedAggregateEngine::Create(ec.decay, EngineOptions(ec));
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

/// An engine with dirty tracking on — the precondition for a log.
std::unique_ptr<ShardedAggregateEngine> MakeTrackedEngine(
    const EngineCase& ec) {
  auto engine = MakeEngine(ec);
  EXPECT_TRUE(engine->EnableCheckpointTracking().ok());
  return engine;
}

std::vector<KeyedItem> Stream(uint64_t phase, Tick start_tick, int count,
                              Tick* end_tick) {
  Rng rng(7100 + phase);
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
  const std::string dir = ::testing::TempDir() + "tds_ckptlog_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The engine-wide registry blob — the byte-identity oracle.
std::string MergedBlob(ShardedAggregateEngine& engine) {
  auto merged = engine.Snapshot();
  EXPECT_TRUE(merged.ok());
  std::string blob;
  EXPECT_TRUE(merged->EncodeRegistryState(&blob).ok());
  return blob;
}

/// Blob recovered by a cold load of the log directory.
std::string RecoveredBlob(const EngineCase& ec, const std::string& dir) {
  auto restored = MakeEngine(ec);
  EXPECT_TRUE(RestoreFromCheckpointLog(*restored, dir).ok());
  return MergedBlob(*restored);
}

CheckpointLog MakeLog(ShardedAggregateEngine& engine, const std::string& dir,
                      const CheckpointLog::Options& options = {}) {
  auto log = CheckpointLog::Create(engine, dir, options);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return std::move(log).value();
}

TEST(CheckpointLogTest, RequiresTrackingEnabled) {
  const EngineCase ec = Cases()[0];
  auto engine = MakeEngine(ec);
  const std::string dir = TempDir("needs_tracking");
  EXPECT_EQ(CheckpointLog::Create(*engine, dir, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointLogTest, IncrementalRoundTripIsByteIdentical) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("roundtrip_") + ec.label);
    auto engine = MakeTrackedEngine(ec);
    auto log = MakeLog(*engine, dir);

    Tick t = 1;
    for (uint64_t round = 0; round < 4; ++round) {
      ASSERT_TRUE(SessionIngest(*engine, Stream(round, t, 2000, &t)).ok());
      ASSERT_TRUE(log.WriteIncremental().ok());
      EXPECT_EQ(log.manifest().generation, round + 1);
      EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(CheckpointLogTest, IngestAfterRestoreStaysByteIdenticalToUninterrupted) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("resume_") + ec.label);

    // Checkpoint mid-stream, "crash" (destroy the engine), restore, feed
    // the rest: the result must match an engine that never went down.
    Tick t1 = 0;
    const auto first = Stream(2, 1, 4000, &t1);
    Tick t2 = 0;
    const auto second = Stream(3, t1, 4000, &t2);
    auto uninterrupted = MakeEngine(ec);
    ASSERT_TRUE(SessionIngest(*uninterrupted, first).ok());
    ASSERT_TRUE(SessionIngest(*uninterrupted, second).ok());
    ASSERT_TRUE(uninterrupted->Flush().ok());

    {
      auto crashing = MakeTrackedEngine(ec);
      auto log = MakeLog(*crashing, dir);
      ASSERT_TRUE(SessionIngest(*crashing, first).ok());
      ASSERT_TRUE(log.WriteIncremental().ok());
    }  // destroyed: everything after the checkpoint is lost, as in a crash

    auto restored = MakeEngine(ec);
    ASSERT_TRUE(RestoreFromCheckpointLog(*restored, dir).ok());
    ASSERT_TRUE(SessionIngest(*restored, second).ok());
    ASSERT_TRUE(restored->Flush().ok());
    EXPECT_EQ(MergedBlob(*restored), MergedBlob(*uninterrupted));
    std::filesystem::remove_all(dir);
  }
}

TEST(CheckpointLogTest, UpdateFreeRoundStaysLoadable) {
  const EngineCase ec = Cases()[1];  // WBMH: the clock lives in the layout
  const std::string dir = TempDir("idle_round");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*engine, Stream(10, t, 1000, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  // Nothing dirtied: the generation still commits (clock-only segments)
  // and recovery still matches.
  ASSERT_TRUE(log.WriteIncremental().ok());
  EXPECT_EQ(log.manifest().generation, 2u);
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, IncrementalBytesScaleWithChurnNotPopulation) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("churn");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);

  // 2000 distinct keys, then a 1% churn round: the delta generation must
  // cost < 10% of the full-population generation (the ISSUE bound).
  std::vector<KeyedItem> all;
  for (uint64_t key = 0; key < 2000; ++key) {
    all.push_back(KeyedItem{key, 1, 1 + (key % 3)});
  }
  ASSERT_TRUE(SessionIngest(*engine, all).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  uint64_t full_bytes = 0;
  for (const auto& entry : log.manifest().entries) {
    if (entry.gen_lo == 1) full_bytes += entry.length;
  }

  std::vector<KeyedItem> churn;
  for (uint64_t key = 0; key < 20; ++key) {
    churn.push_back(KeyedItem{key * 100, 2, 1});
  }
  ASSERT_TRUE(SessionIngest(*engine, churn).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  uint64_t delta_bytes = 0;
  for (const auto& entry : log.manifest().entries) {
    if (entry.gen_lo == 2) delta_bytes += entry.length;
  }
  EXPECT_GT(full_bytes, 0u);
  EXPECT_GT(delta_bytes, 0u);
  EXPECT_LT(delta_bytes * 10, full_bytes)
      << "delta=" << delta_bytes << " full=" << full_bytes;
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, EvictedKeysPropagateThroughSegments) {
  // Sliding-window decay expires idle keys; a key evicted between two
  // WriteIncremental calls must vanish from recovery too (the dead-key
  // list), or the restored engine would resurrect it.
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("dead_keys");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);

  std::vector<KeyedItem> old_keys;
  for (uint64_t key = 1000; key < 1040; ++key) {
    old_keys.push_back(KeyedItem{key, 1, 5});
  }
  ASSERT_TRUE(SessionIngest(*engine, old_keys).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  const size_t keys_before = engine->KeyCount();

  // Push the clock far past the 512-tick window; the expiry sweeps run off
  // the later updates and evict the idle keys above.
  std::vector<KeyedItem> later;
  Rng rng(42);
  for (int i = 0; i < 4000; ++i) {
    later.push_back(KeyedItem{rng.NextBelow(50), 2000 + i / 100, 1});
  }
  ASSERT_TRUE(SessionIngest(*engine, later).ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_LT(engine->KeyCount(), keys_before + 50)
      << "expiry never evicted the idle keys; the test lost its subject";

  ASSERT_TRUE(log.WriteIncremental().ok());
  auto restored = MakeEngine(ec);
  ASSERT_TRUE(RestoreFromCheckpointLog(*restored, dir).ok());
  EXPECT_EQ(restored->KeyCount(), engine->KeyCount());
  EXPECT_EQ(MergedBlob(*restored), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, CompactionFoldsWithoutChangingRecovery) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("compact_") + ec.label);
    auto engine = MakeTrackedEngine(ec);
    CheckpointLog::Options options;
    options.compact_min_segments = 0;  // manual compaction only
    auto log = MakeLog(*engine, dir, options);

    Tick t = 1;
    for (uint64_t round = 0; round < 5; ++round) {
      ASSERT_TRUE(SessionIngest(*engine, Stream(20 + round, t, 800, &t)).ok());
      ASSERT_TRUE(log.WriteIncremental().ok());
    }
    const std::string before = RecoveredBlob(ec, dir);
    const uint64_t live_before = log.LiveBytes();

    ASSERT_TRUE(log.Compact().ok());
    // A compaction is one full generation: one segment per shard.
    ASSERT_EQ(log.manifest().generation, 6u);
    ASSERT_EQ(log.manifest().entries.size(), engine->shards());
    for (const auto& entry : log.manifest().entries) {
      EXPECT_EQ(entry.gen_lo, 6u);
    }
    EXPECT_LT(log.LiveBytes(), live_before);
    EXPECT_EQ(RecoveredBlob(ec, dir), before);

    // Writing after a compaction keeps working and recovery still matches.
    ASSERT_TRUE(SessionIngest(*engine, Stream(30, t, 800, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
    std::filesystem::remove_all(dir);
  }
}

TEST(CheckpointLogTest, AutoCompactionBoundsLiveSegmentCount) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("auto_compact");
  auto engine = MakeTrackedEngine(ec);
  CheckpointLog::Options options;
  options.compact_min_segments = 6;  // 3 shards => folds every ~2 rounds
  auto log = MakeLog(*engine, dir, options);

  Tick t = 1;
  for (uint64_t round = 0; round < 8; ++round) {
    ASSERT_TRUE(SessionIngest(*engine, Stream(40 + round, t, 500, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    EXPECT_EQ(log.manifest().generation, round + 1);
    EXPECT_LE(log.manifest().entries.size(), options.compact_min_segments);
  }
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, GarbageCollectionDropsSupersededFiles) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("gc");
  auto engine = MakeTrackedEngine(ec);
  CheckpointLog::Options options;
  options.compact_min_segments = 0;
  auto log = MakeLog(*engine, dir, options);

  Tick t = 1;
  for (uint64_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(SessionIngest(*engine, Stream(50 + round, t, 500, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
  }
  ASSERT_TRUE(log.Compact().ok());
  // One more commit rotates the pre-compaction manifest out of .prev, so
  // only the full generation's and the newest segments may remain on disk.
  ASSERT_TRUE(SessionIngest(*engine, Stream(60, t, 500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  size_t files = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind("seg-", 0) == 0 || name.rfind("base-", 0) == 0) ++files;
  }
  // The full generation + the newest generation's segments at most.
  EXPECT_LE(files, 2 * 3u);
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, ResumesAcrossProcessRestart) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("restart");
  std::string blob_at_crash;
  {
    auto engine = MakeTrackedEngine(ec);
    auto log = MakeLog(*engine, dir);
    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*engine, Stream(70, t, 2000, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    ASSERT_TRUE(SessionIngest(*engine, Stream(71, t, 2000, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    blob_at_crash = MergedBlob(*engine);
  }  // process dies

  // Restart: restore the engine from the log, reopen the log (resuming
  // after the newest generation), and keep checkpointing.
  auto engine = MakeEngine(ec);
  ASSERT_TRUE(RestoreFromCheckpointLog(*engine, dir).ok());
  ASSERT_TRUE(engine->EnableCheckpointTracking().ok());
  EXPECT_EQ(MergedBlob(*engine), blob_at_crash);
  auto log = MakeLog(*engine, dir);
  EXPECT_EQ(log.manifest().generation, 2u);
  Tick t = 5000;
  ASSERT_TRUE(SessionIngest(*engine, Stream(72, t, 2000, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  EXPECT_EQ(log.manifest().generation, 3u);
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, FingerprintMismatchIsRejected) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("fingerprint");
  {
    auto engine = MakeTrackedEngine(ec);
    auto log = MakeLog(*engine, dir);
    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*engine, Stream(80, t, 500, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
  }
  // Same decay, different epsilon: both reopening the log and loading the
  // state must refuse.
  ShardedAggregateEngine::Options other = EngineOptions(ec);
  other.registry = RegistryOptions(ec.backend, 0.3);
  auto mismatched = ShardedAggregateEngine::Create(ec.decay, other);
  ASSERT_TRUE(mismatched.ok());
  ASSERT_TRUE((*mismatched)->EnableCheckpointTracking().ok());
  EXPECT_FALSE(CheckpointLog::Create(**mismatched, dir, {}).ok());
  EXPECT_FALSE(RestoreFromCheckpointLog(**mismatched, dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, CorruptSegmentIsDetected) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("corrupt_seg");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*engine, Stream(90, t, 1500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());

  // Flip one byte in the middle of a live segment: the manifest checksum
  // check must refuse before the codec ever sees the bytes.
  const std::string victim = dir + "/" + log.manifest().entries[0].file;
  std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
  const auto size =
      static_cast<std::streamoff>(std::filesystem::file_size(victim));
  f.seekg(size / 2);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x20);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  auto restored = MakeEngine(ec);
  EXPECT_FALSE(RestoreFromCheckpointLog(*restored, dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, TornManifestFallsBackToPreviousGeneration) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("torn_manifest");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*engine, Stream(100, t, 1500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  const std::string blob_gen1 = MergedBlob(*engine);
  ASSERT_TRUE(SessionIngest(*engine, Stream(101, t, 1500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());

  // Tear the committed manifest: recovery must land on generation 1 via
  // .prev — whose segment files GC deliberately kept alive.
  const std::string manifest_path = dir + "/MANIFEST.tds";
  std::filesystem::resize_file(manifest_path,
                               std::filesystem::file_size(manifest_path) / 2);
  EXPECT_EQ(RecoveredBlob(ec, dir), blob_gen1);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, BothManifestGenerationsFailingReportsBoth) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("both_manifests");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*engine, Stream(110, t, 500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  ASSERT_TRUE(SessionIngest(*engine, Stream(111, t, 500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());

  // Corrupt the two generations differently: truncate the primary, flip a
  // checksum byte in .prev. The combined error must name both.
  const std::string manifest_path = dir + "/MANIFEST.tds";
  std::filesystem::resize_file(manifest_path, 3);
  {
    std::fstream f(manifest_path + ".prev",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const char byte = 0x7f;
    f.write(&byte, 1);
  }
  auto manifest = LoadManifest(dir);
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().message().find("fallback"), std::string::npos)
      << manifest.status().ToString();
  EXPECT_NE(manifest.status().message().find(".prev"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, CorruptionIsDetected) {
  const EngineCase ec = Cases()[0];
  const std::string pristine = TempDir("corrupt_pristine");
  std::string source_blob;
  {
    auto source = MakeTrackedEngine(ec);
    auto log = MakeLog(*source, pristine);
    Tick t = 0;
    ASSERT_TRUE(SessionIngest(*source, Stream(4, 1, 2000, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    source_blob = MergedBlob(*source);
  }
  // One generation only: no MANIFEST.tds.prev to fall back to.
  ASSERT_FALSE(std::filesystem::exists(pristine + "/MANIFEST.tds.prev"));
  auto manifest = LoadManifest(pristine);
  ASSERT_TRUE(manifest.ok());
  const std::string segment = manifest->entries[0].file;

  struct Mutilation {
    const char* label;
    void (*apply)(const std::string& path);
  };
  const Mutilation mutilations[] = {
      {"truncate-1", [](const std::string& p) {
         std::filesystem::resize_file(p, std::filesystem::file_size(p) - 1);
       }},
      {"truncate-half", [](const std::string& p) {
         std::filesystem::resize_file(p, std::filesystem::file_size(p) / 2);
       }},
      {"truncate-empty", [](const std::string& p) {
         std::filesystem::resize_file(p, 0);
       }},
      {"bitflip-middle", [](const std::string& p) {
         std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
         const auto size =
             static_cast<std::streamoff>(std::filesystem::file_size(p));
         f.seekg(size / 2);
         char byte = 0;
         f.read(&byte, 1);
         byte = static_cast<char>(byte ^ 0x40);
         f.seekp(size / 2);
         f.write(&byte, 1);
       }},
      {"bitflip-footer", [](const std::string& p) {
         std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
         const auto size =
             static_cast<std::streamoff>(std::filesystem::file_size(p));
         f.seekg(size - 4);
         char byte = 0;
         f.read(&byte, 1);
         byte = static_cast<char>(byte ^ 0x01);
         f.seekp(size - 4);
         f.write(&byte, 1);
       }},
  };
  const std::string victims[] = {segment, "MANIFEST.tds"};
  for (const std::string& victim_file : victims) {
    for (const Mutilation& m : mutilations) {
      SCOPED_TRACE(victim_file + " " + m.label);
      const std::string dir = TempDir("corrupt");
      std::filesystem::copy(pristine, dir,
                            std::filesystem::copy_options::recursive);
      m.apply(dir + "/" + victim_file);
      // No intact .prev exists, so the load must fail outright — never
      // return state decoded from a damaged file.
      EXPECT_FALSE(
          LoadCheckpointLog(ec.decay, EngineOptions(ec).registry, dir).ok());
      auto restored = MakeEngine(ec);
      EXPECT_FALSE(RestoreFromCheckpointLog(*restored, dir).ok());
      // The failed restore left the engine fresh: the intact log still
      // restores onto it byte-exact, and it keeps ingesting.
      EXPECT_EQ(restored->ItemsApplied(), 0u);
      EXPECT_EQ(restored->KeyCount(), 0u);
      ASSERT_TRUE(RestoreFromCheckpointLog(*restored, pristine).ok());
      EXPECT_EQ(MergedBlob(*restored), source_blob);
      EXPECT_TRUE(SessionIngest(*restored, 1, 5000, 1).ok());
      EXPECT_TRUE(restored->Flush().ok());
      std::filesystem::remove_all(dir);
    }
  }
  std::filesystem::remove_all(pristine);
}

TEST(CheckpointLogTest, RestoreRequiresFreshEngine) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("fresh");
  {
    auto source = MakeTrackedEngine(ec);
    auto log = MakeLog(*source, dir);
    Tick t = 0;
    ASSERT_TRUE(SessionIngest(*source, Stream(7, 1, 500, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
  }
  auto dirty = MakeEngine(ec);
  ASSERT_TRUE(SessionIngest(*dirty, 1, 1, 1).ok());
  ASSERT_TRUE(dirty->Flush().ok());
  EXPECT_EQ(RestoreFromCheckpointLog(*dirty, dir).code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, MissingLogFailsCleanly) {
  const EngineCase ec = Cases()[0];
  const std::string missing = TempDir("does_not_exist");
  const std::string empty = TempDir("empty");
  std::filesystem::create_directory(empty);
  for (const std::string& dir : {missing, empty}) {
    SCOPED_TRACE(dir);
    EXPECT_FALSE(HasCheckpointLog(dir));
    auto engine = MakeEngine(ec);
    EXPECT_FALSE(RestoreFromCheckpointLog(*engine, dir).ok());
    EXPECT_TRUE(SessionIngest(*engine, 1, 1, 1).ok());
    EXPECT_TRUE(engine->Flush().ok());
    EXPECT_EQ(engine->KeyCount(), 1u);
  }
  std::filesystem::remove_all(empty);
}

// Recovery contracts of a checkpoint as a whole, held by the log: a
// restored engine answers every read like the source, a damaged newest
// manifest falls back to the previous generation, a double failure names
// both causes, and an engine configured differently is refused.

TEST(CheckpointTest, RoundTripIsByteIdentical) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("ckpt_roundtrip_") + ec.label);
    auto source = MakeTrackedEngine(ec);
    auto log = MakeLog(*source, dir);
    Tick t = 0;
    ASSERT_TRUE(SessionIngest(*source, Stream(1, 1, 5000, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    const std::string source_blob = MergedBlob(*source);

    auto restored = MakeEngine(ec);
    ASSERT_TRUE(RestoreFromCheckpointLog(*restored, dir).ok());
    EXPECT_EQ(MergedBlob(*restored), source_blob);
    EXPECT_EQ(restored->KeyCount(), source->KeyCount());
    for (uint64_t key = 0; key < 80; ++key) {
      EXPECT_DOUBLE_EQ(restored->QueryKey(key, t), source->QueryKey(key, t))
          << "key=" << key;
    }
    auto merged = restored->Snapshot();
    ASSERT_TRUE(merged.ok());
    const auto source_top = source->Snapshot();
    ASSERT_TRUE(source_top.ok());
    const auto top_restored = merged->TopK(10, t);
    const auto top_source = source_top->TopK(10, t);
    ASSERT_EQ(top_restored.size(), top_source.size());
    for (size_t i = 0; i < top_source.size(); ++i) {
      EXPECT_EQ(top_restored[i].key, top_source[i].key);
      EXPECT_DOUBLE_EQ(top_restored[i].weight, top_source[i].weight);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(CheckpointTest, CorruptPrimaryFallsBackToPreviousCheckpoint) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("ckpt_fallback");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);
  Tick t1 = 0;
  ASSERT_TRUE(SessionIngest(*engine, Stream(5, 1, 3000, &t1)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  const std::string old_blob = MergedBlob(*engine);

  // The second commit rotates the first manifest to .prev; then one
  // payload byte of the primary flips. The footer checksum must refuse it
  // and recovery land on the previous generation, byte-exact.
  Tick t2 = 0;
  ASSERT_TRUE(SessionIngest(*engine, Stream(6, t1, 3000, &t2)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  const std::string manifest_path = dir + "/MANIFEST.tds";
  ASSERT_TRUE(std::filesystem::exists(manifest_path + ".prev"));
  {
    std::fstream f(manifest_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(6);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(6);
    f.write(&byte, 1);
  }

  auto restored = MakeEngine(ec);
  ASSERT_TRUE(RestoreFromCheckpointLog(*restored, dir).ok());
  EXPECT_EQ(MergedBlob(*restored), old_blob);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, BothGenerationsFailingReportsBothErrors) {
  // With the primary *and* .prev both damaged, the error must name both
  // failures — the fallback's cause is never hidden by the primary's.
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("ckpt_both_bad");
  auto engine = MakeTrackedEngine(ec);
  auto log = MakeLog(*engine, dir);
  Tick t1 = 0;
  ASSERT_TRUE(SessionIngest(*engine, Stream(11, 1, 1000, &t1)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  Tick t2 = 0;
  ASSERT_TRUE(SessionIngest(*engine, Stream(12, t1, 1000, &t2)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  const std::string manifest_path = dir + "/MANIFEST.tds";
  ASSERT_TRUE(std::filesystem::exists(manifest_path + ".prev"));

  // Different failure shapes: truncate the primary below the footer,
  // corrupt a payload byte in the fallback.
  std::filesystem::resize_file(manifest_path, 5);
  {
    std::fstream f(manifest_path + ".prev",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    const char byte = 0x3c;
    f.write(&byte, 1);
  }
  auto loaded = LoadCheckpointLog(ec.decay, EngineOptions(ec).registry, dir);
  ASSERT_FALSE(loaded.ok());
  const std::string& msg = loaded.status().message();
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fallback"), std::string::npos) << msg;
  EXPECT_NE(msg.find(".prev"), std::string::npos) << msg;
  EXPECT_NE(msg.find("mismatch"), std::string::npos) << msg;
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, OptionsMismatchIsRejected) {
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("ckpt_mismatch");
  {
    auto source = MakeTrackedEngine(ec);
    auto log = MakeLog(*source, dir);
    Tick t = 0;
    ASSERT_TRUE(SessionIngest(*source, Stream(8, 1, 500, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
  }
  // A different decay parameter and a different epsilon: the restore must
  // refuse both and leave the engine without keys.
  ShardedAggregateEngine::Options other_epsilon = EngineOptions(ec);
  other_epsilon.registry = RegistryOptions(ec.backend, 0.3);
  const std::pair<DecayPtr, ShardedAggregateEngine::Options> mismatches[] = {
      {SlidingWindowDecay::Create(1024).value(), EngineOptions(ec)},
      {ec.decay, other_epsilon},
  };
  for (const auto& [decay, options] : mismatches) {
    SCOPED_TRACE(decay->Name());
    auto mismatched = ShardedAggregateEngine::Create(decay, options);
    ASSERT_TRUE(mismatched.ok());
    EXPECT_FALSE(RestoreFromCheckpointLog(**mismatched, dir).ok());
    EXPECT_EQ((*mismatched)->KeyCount(), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, RotatedManifestAloneIsResumed) {
  // A crash between the commit's rotate (MANIFEST.tds -> .prev) and its
  // rename leaves only MANIFEST.tds.prev. That is still a log: restore
  // must load it, and Create must resume writing after its generation.
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("rotated");
  std::string committed;
  {
    auto engine = MakeTrackedEngine(ec);
    auto log = MakeLog(*engine, dir);
    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*engine, Stream(75, t, 1500, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    committed = MergedBlob(*engine);
  }
  std::filesystem::rename(dir + "/MANIFEST.tds", dir + "/MANIFEST.tds.prev");
  ASSERT_TRUE(HasCheckpointLog(dir));

  auto engine = MakeEngine(ec);
  ASSERT_TRUE(RestoreFromCheckpointLog(*engine, dir).ok());
  EXPECT_EQ(MergedBlob(*engine), committed);
  ASSERT_TRUE(engine->EnableCheckpointTracking().ok());
  auto log = MakeLog(*engine, dir);
  EXPECT_EQ(log.manifest().generation, 1u);
  Tick t = 5000;
  ASSERT_TRUE(SessionIngest(*engine, Stream(76, t, 500, &t)).ok());
  ASSERT_TRUE(log.WriteIncremental().ok());
  EXPECT_EQ(log.manifest().generation, 2u);
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, CrashAtEveryFailpointKeepsPreviousManifest) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("faults_") + ec.label);
    auto engine = MakeTrackedEngine(ec);
    CheckpointLog::Options options;
    options.io_retries = 1;
    options.backoff.sleeper = [](std::chrono::nanoseconds) {};
    options.compact_min_segments = 0;
    auto log = MakeLog(*engine, dir, options);

    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*engine, Stream(120, t, 1500, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    const std::string committed = MergedBlob(*engine);
    const uint64_t committed_gen = log.manifest().generation;

    // Sticky faults defeat the retry layer — a persistent outage, or a
    // crash. After each failed operation the committed generation must
    // still recover byte-exact.
    failpoint::Scenario sticky;
    sticky.fire_on_hit = 1;
    sticky.sticky = true;
    for (const char* fp :
         {"ckptlog.segment.write", "ckptlog.manifest.commit"}) {
      SCOPED_TRACE(fp);
      ASSERT_TRUE(SessionIngest(*engine, Stream(121, t, 300, &t)).ok());
      failpoint::Arm(fp, sticky);
      EXPECT_EQ(log.WriteIncremental().code(), StatusCode::kUnavailable);
      failpoint::DisarmAll();
      EXPECT_EQ(log.manifest().generation, committed_gen);
      EXPECT_EQ(RecoveredBlob(ec, dir), committed);
    }
    failpoint::Arm("ckptlog.compact", sticky);
    EXPECT_EQ(log.Compact().code(), StatusCode::kUnavailable);
    failpoint::DisarmAll();
    EXPECT_EQ(RecoveredBlob(ec, dir), committed);

    // With faults cleared the next write lands everything that accumulated
    // across the failed rounds (the epoch watermark never advanced).
    ASSERT_TRUE(log.WriteIncremental().ok());
    EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
    std::filesystem::remove_all(dir);
  }
}

TEST(CheckpointLogTest, TransientFaultIsRetriedDeterministically) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("retry");
  auto engine = MakeTrackedEngine(ec);
  std::vector<std::chrono::nanoseconds> sleeps;
  CheckpointLog::Options options;
  options.io_retries = 2;
  options.backoff.initial_delay = std::chrono::milliseconds(1);
  options.backoff.multiplier = 2.0;
  options.backoff.sleeper = [&](std::chrono::nanoseconds d) {
    sleeps.push_back(d);
  };
  auto log = MakeLog(*engine, dir, options);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*engine, Stream(130, t, 800, &t)).ok());

  // One transient fault on the first segment write: the retry layer rides
  // it out, sleeping exactly once for the initial backoff delay.
  failpoint::ArmNthHit("ckptlog.segment.write", 1);
  ASSERT_TRUE(log.WriteIncremental().ok());
  ASSERT_EQ(sleeps.size(), 1u);
  EXPECT_EQ(sleeps[0], std::chrono::nanoseconds(std::chrono::milliseconds(1)));
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  failpoint::DisarmAll();
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, RetriesExhaustAfterExactlyNAttempts) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("retry_exhaust");
  auto engine = MakeTrackedEngine(ec);
  std::vector<std::chrono::nanoseconds> sleeps;
  CheckpointLog::Options options;
  options.io_retries = 2;
  options.backoff.initial_delay = std::chrono::milliseconds(1);
  options.backoff.multiplier = 2.0;
  options.backoff.sleeper = [&](std::chrono::nanoseconds d) {
    sleeps.push_back(d);
  };
  auto log = MakeLog(*engine, dir, options);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*engine, Stream(140, t, 800, &t)).ok());

  // Sticky fault: io_retries=2 means exactly 3 attempts on the first
  // shard's segment, then the write gives up with the fault surfaced.
  failpoint::Scenario sticky;
  sticky.fire_on_hit = 1;
  sticky.sticky = true;
  failpoint::Arm("ckptlog.segment.write", sticky);
  EXPECT_EQ(log.WriteIncremental().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failpoint::Hits("ckptlog.segment.write"), 3u);
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], std::chrono::nanoseconds(std::chrono::milliseconds(1)));
  EXPECT_EQ(sleeps[1], std::chrono::nanoseconds(std::chrono::milliseconds(2)));
  failpoint::DisarmAll();

  // Nth-hit regression: a fault on the *last* allowed attempt still fails
  // the write (the retry budget is attempts, not fired faults)…
  sleeps.clear();
  failpoint::Arm("ckptlog.segment.write", sticky);
  EXPECT_EQ(log.WriteIncremental().code(), StatusCode::kUnavailable);
  failpoint::DisarmAll();
  // …while a fault strictly inside the budget recovers.
  failpoint::ArmNthHit("ckptlog.segment.write", 2);
  ASSERT_TRUE(log.WriteIncremental().ok());
  failpoint::DisarmAll();
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLogTest, RetryDisabledFailsOnFirstFault) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  const EngineCase ec = Cases()[0];
  const std::string dir = TempDir("retry_off");
  auto engine = MakeTrackedEngine(ec);
  CheckpointLog::Options options;
  options.io_retries = 0;
  auto log = MakeLog(*engine, dir, options);
  Tick t = 1;
  ASSERT_TRUE(SessionIngest(*engine, Stream(150, t, 400, &t)).ok());
  failpoint::ArmNthHit("ckptlog.segment.write", 1);
  EXPECT_EQ(log.WriteIncremental().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failpoint::Hits("ckptlog.segment.write"), 1u);
  failpoint::DisarmAll();
  ASSERT_TRUE(log.WriteIncremental().ok());
  EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
  std::filesystem::remove_all(dir);
}

// Every call commits at most one generation, so a call that returns an
// error committed nothing: the generation and the recovered state stay
// put. That holds for the automatic full commit too, which fails at the
// same "ckptlog.compact" failpoint as Compact().
TEST(CheckpointLogTest, FailedCommitLeavesGenerationUnchanged) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  const EngineCase ec = Cases()[0];
  failpoint::Scenario sticky;
  sticky.fire_on_hit = 1;
  sticky.sticky = true;
  enum class Call { kPlain, kAutoFull, kCompact };
  const std::pair<std::string_view, Call> cases[] = {
      {"ckptlog.segment.write", Call::kPlain},
      {"ckptlog.segment.write", Call::kAutoFull},
      {"ckptlog.segment.write", Call::kCompact},
      {"ckptlog.manifest.commit", Call::kPlain},
      {"ckptlog.manifest.commit", Call::kAutoFull},
      {"ckptlog.manifest.commit", Call::kCompact},
      {"ckptlog.compact", Call::kAutoFull},
      {"ckptlog.compact", Call::kCompact},
  };
  for (const auto& [fp, call] : cases) {
    SCOPED_TRACE(::testing::Message()
                 << fp << " call=" << static_cast<int>(call));
    const std::string dir = TempDir("unchanged");
    auto engine = MakeTrackedEngine(ec);
    CheckpointLog::Options options;
    options.io_retries = 1;
    options.backoff.sleeper = [](std::chrono::nanoseconds) {};
    // The first commit leaves one file per shard (3), so with a bound of 3
    // every later WriteIncremental is an automatic full commit.
    options.compact_min_segments = call == Call::kAutoFull ? 3 : 0;
    auto log = MakeLog(*engine, dir, options);

    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*engine, Stream(180, t, 1200, &t)).ok());
    ASSERT_TRUE(log.WriteIncremental().ok());
    const std::string committed = MergedBlob(*engine);
    const uint64_t committed_gen = log.manifest().generation;

    ASSERT_TRUE(SessionIngest(*engine, Stream(181, t, 600, &t)).ok());
    failpoint::Arm(fp, sticky);
    const Status failed =
        call == Call::kCompact ? log.Compact() : log.WriteIncremental();
    failpoint::DisarmAll();
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
    EXPECT_EQ(log.manifest().generation, committed_gen);
    auto on_disk = LoadManifest(dir);
    ASSERT_TRUE(on_disk.ok());
    EXPECT_EQ(on_disk->generation, committed_gen);
    EXPECT_EQ(RecoveredBlob(ec, dir), committed);

    // Cleared, the next call commits exactly one generation.
    ASSERT_TRUE(log.WriteIncremental().ok());
    EXPECT_EQ(log.manifest().generation, committed_gen + 1);
    EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
    std::filesystem::remove_all(dir);
  }
}

// A log reopened on an engine that was not restored from it: the first
// commit is a full one and replaces the history, so recovery yields
// exactly the new engine and none of the old keys.
TEST(CheckpointLogTest, ReopenOnUnrestoredEngineReplacesHistory) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("reopen_") + ec.label);
    {
      auto old_engine = MakeTrackedEngine(ec);
      auto log = MakeLog(*old_engine, dir);
      Tick t = 1;
      for (uint64_t round = 0; round < 3; ++round) {
        ASSERT_TRUE(
            SessionIngest(*old_engine, Stream(160 + round, t, 800, &t)).ok());
        ASSERT_TRUE(log.WriteIncremental().ok());
      }
    }
    auto engine = MakeTrackedEngine(ec);
    std::vector<KeyedItem> items;
    for (uint64_t i = 0; i < 40; ++i) {
      items.push_back(KeyedItem{1000 + i, 1 + static_cast<Tick>(i / 8), 2});
    }
    ASSERT_TRUE(SessionIngest(*engine, items).ok());
    auto log = MakeLog(*engine, dir);
    EXPECT_EQ(log.manifest().generation, 3u);
    ASSERT_TRUE(log.WriteIncremental().ok());
    EXPECT_EQ(log.manifest().generation, 4u);
    EXPECT_EQ(log.manifest().entries.size(), engine->shards());

    auto restored = MakeEngine(ec);
    ASSERT_TRUE(RestoreFromCheckpointLog(*restored, dir).ok());
    EXPECT_EQ(restored->KeyCount(), engine->KeyCount());
    EXPECT_EQ(MergedBlob(*restored), MergedBlob(*engine));
    std::filesystem::remove_all(dir);
  }
}

/// Footers `payload`, writes it to `path`, and returns its manifest entry.
CheckpointLog::ManifestEntry WriteLogFile(const std::string& dir,
                                          const std::string& name,
                                          uint32_t shard, uint64_t gen_lo,
                                          uint64_t gen_hi,
                                          std::string payload) {
  ckptio::AppendFooter(&payload);
  std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  EXPECT_TRUE(out.good());
  CheckpointLog::ManifestEntry entry;
  entry.file = name;
  entry.shard = shard;
  entry.gen_lo = gen_lo;
  entry.gen_hi = gen_hi;
  entry.length = payload.size();
  entry.checksum = ckptio::Fnv1a(payload);
  return entry;
}

// Logs from before compaction became a full commit hold a base file: one
// registry blob folding generations gen_lo..gen_hi, shard kBaseShard, no
// dead keys. Such a log (base 1..3, compaction committed as generation 4,
// one incremental generation 5) must load byte-identically, feed a
// follower, and take new commits, which shed the base.
TEST(CheckpointLogTest, LegacyBaseLogLoadsResumesAndFeedsFollower) {
  for (const EngineCase& ec : Cases()) {
    SCOPED_TRACE(ec.label);
    const std::string dir = TempDir(std::string("legacy_base_") + ec.label);
    std::filesystem::create_directories(dir);
    auto engine = MakeTrackedEngine(ec);
    Tick t = 1;
    ASSERT_TRUE(SessionIngest(*engine, Stream(170, t, 1500, &t)).ok());
    ASSERT_TRUE(engine->Flush().ok());

    CheckpointLog::Manifest manifest;
    manifest.generation = 5;
    manifest.decay_name = ec.decay->Name();
    manifest.backend =
        static_cast<uint64_t>(ResolveBackend(*ec.decay, ec.backend));
    manifest.epsilon = engine->options().registry.aggregate.epsilon();
    manifest.start = engine->options().registry.aggregate.start();
    manifest.shard_epochs.assign(engine->shards(), 0);

    // The base: the whole engine state at one cut. The full capture opens
    // the epochs generation 5's segments start from.
    std::vector<ShardedAggregateEngine::ShardCheckpointDelta> cut;
    ASSERT_TRUE(engine
                    ->CaptureCheckpointDeltas(
                        std::vector<uint64_t>(engine->shards(), 0), &cut)
                    .ok());
    ckptlog_internal::Segment base;
    base.shard = CheckpointLog::kBaseShard;
    base.gen_lo = 1;
    base.gen_hi = 3;
    base.registry_blob = MergedBlob(*engine);
    std::string payload;
    ASSERT_TRUE(base.Encode(&payload).ok());
    manifest.entries.push_back(WriteLogFile(dir, "base-1-3.tds",
                                            CheckpointLog::kBaseShard, 1, 3,
                                            std::move(payload)));

    ASSERT_TRUE(SessionIngest(*engine, Stream(171, t, 600, &t)).ok());
    ASSERT_TRUE(engine->Flush().ok());
    std::vector<uint64_t> since;
    for (const auto& shard_delta : cut) since.push_back(shard_delta.delta.epoch);
    std::vector<ShardedAggregateEngine::ShardCheckpointDelta> deltas;
    ASSERT_TRUE(engine->CaptureCheckpointDeltas(since, &deltas).ok());
    for (const auto& shard_delta : deltas) {
      ckptlog_internal::Segment segment;
      segment.shard = shard_delta.shard;
      segment.gen_lo = 5;
      segment.gen_hi = 5;
      segment.epoch = shard_delta.delta.epoch;
      segment.dead_keys = shard_delta.delta.dead_keys;
      segment.registry_blob = shard_delta.delta.blob;
      ASSERT_TRUE(segment.Encode(&payload).ok());
      manifest.entries.push_back(WriteLogFile(
          dir, "seg-5-s" + std::to_string(shard_delta.shard) + ".tds",
          shard_delta.shard, 5, 5, std::move(payload)));
      manifest.shard_epochs[shard_delta.shard] = shard_delta.delta.epoch;
    }
    ASSERT_TRUE(manifest.Encode(&payload).ok());
    (void)WriteLogFile(dir, "MANIFEST.tds", 0, 0, 0, std::move(payload));

    // Loads byte-identically; a fresh follower builds from the base.
    EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*engine));
    auto follower =
        StandbyFollower::Create(ec.decay, EngineOptions(ec).registry, dir);
    ASSERT_TRUE(follower.ok());
    ASSERT_TRUE(follower->ApplyNew().ok());
    EXPECT_EQ(follower->applied_generation(), 5u);

    // Resume writing on an engine restored from the log.
    auto resumed = MakeEngine(ec);
    ASSERT_TRUE(RestoreFromCheckpointLog(*resumed, dir).ok());
    ASSERT_TRUE(resumed->EnableCheckpointTracking().ok());
    auto log = MakeLog(*resumed, dir);
    for (uint64_t round = 0; round < 2; ++round) {
      ASSERT_TRUE(SessionIngest(*resumed, Stream(172 + round, t, 600, &t)).ok());
      ASSERT_TRUE(log.WriteIncremental().ok());
      EXPECT_EQ(log.manifest().generation, 6 + round);
      EXPECT_EQ(RecoveredBlob(ec, dir), MergedBlob(*resumed));
      ASSERT_TRUE(follower->ApplyNew().ok());
      EXPECT_EQ(follower->applied_generation(), 6 + round);
    }
    // Neither the manifest nor its .prev names the base any more.
    EXPECT_FALSE(std::filesystem::exists(dir + "/base-1-3.tds"));
    auto promoted = follower->Promote(EngineOptions(ec));
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_EQ(MergedBlob(**promoted), MergedBlob(*resumed));
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace tds
