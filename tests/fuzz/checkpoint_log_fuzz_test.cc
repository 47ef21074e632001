// Dual-mode incremental-checkpoint fuzz driver (docs/CORRECTNESS.md): a
// live engine plus a CheckpointLog plus a StandbyFollower are driven
// through byte-stream-derived interleavings of ingest, incremental
// checkpoints, compactions, log reopens ("process restarts"), cold
// restores, and standby applies while the four new failpoints
// (ckptlog.segment.write / ckptlog.manifest.commit / ckptlog.compact /
// standby.apply) are armed and disarmed at random.
//
// The oracle is crash consistency by byte identity: after every successful
// commit the driver records the engine's merged registry blob, and from
// then on — no matter which operations fail under injected faults — a cold
// LoadCheckpointLog must recover EXACTLY that blob (the serially-fed
// reference) until the next successful commit replaces it. Manifest and
// segment codecs audit themselves on every decode along the way, and the
// final act promotes the follower and checks the same byte identity.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/merged_snapshot.h"
#include "engine/producer_session.h"
#include "engine/registry.h"
#include "engine/standby.h"
#include "fuzz_util.h"
#include "util/failpoint.h"

namespace tds {
namespace {

constexpr uint32_t kShards = 3;
constexpr uint32_t kSlices = 24;
constexpr uint64_t kKeySpace = 48;

constexpr const char* kFailpoints[] = {
    "ckptlog.segment.write",
    "ckptlog.manifest.commit",
    "ckptlog.compact",
    "standby.apply",
};

ShardedAggregateEngine::Options EngineOptions(Backend backend) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = AggregateOptions::Builder()
                                   .backend(backend)
                                   .epsilon(0.15)
                                   .Build()
                                   .value();
  options.shards = kShards;
  options.route_slices = kSlices;
  return options;
}

void ExpectCleanStatus(const Status& status, const FuzzInput& in) {
  if (status.ok()) return;
  TDS_FUZZ_CHECK(status.code() == StatusCode::kUnavailable ||
                     status.code() == StatusCode::kFailedPrecondition ||
                     status.code() == StatusCode::kInvalidArgument,
                 in, "unclean status: ", status.ToString());
}

std::string MergedBlob(ShardedAggregateEngine& engine, const FuzzInput& in) {
  auto merged = engine.Snapshot();
  TDS_FUZZ_CHECK(merged.ok(), in, "Snapshot: ", merged.status().ToString());
  std::string blob;
  TDS_FUZZ_CHECK_OK(merged->EncodeRegistryState(&blob), in, "EncodeRegistry");
  return blob;
}

struct CkptLogFuzzCoverage {
  uint64_t commits = 0;
  uint64_t compactions = 0;
  uint64_t cold_restores = 0;
  uint64_t standby_catchups = 0;
  uint64_t log_reopens = 0;
  uint64_t faults_armed = 0;
};

CkptLogFuzzCoverage RunCheckpointLogFuzz(const DecayPtr& decay,
                                         Backend backend,
                                         const std::string& dir, int max_ops,
                                         FuzzInput& in) {
  failpoint::DisarmAll();
  std::filesystem::remove_all(dir);
  const auto options = EngineOptions(backend);
  auto created = ShardedAggregateEngine::Create(decay, options);
  TDS_FUZZ_CHECK(created.ok(), in, created.status().ToString());
  auto& engine = **created;
  TDS_FUZZ_CHECK_OK(engine.EnableCheckpointTracking(), in, "tracking");

  CheckpointLog::Options log_options;
  log_options.io_retries = static_cast<uint32_t>(in.Below(3));
  log_options.backoff.sleeper = [](std::chrono::nanoseconds) {};
  log_options.compact_min_segments = in.Below(2) == 0 ? 0 : 9;
  auto opened = CheckpointLog::Create(engine, dir, log_options);
  TDS_FUZZ_CHECK(opened.ok(), in, opened.status().ToString());
  auto log = std::make_unique<CheckpointLog>(std::move(opened).value());

  auto follower_created =
      StandbyFollower::Create(decay, options.registry, dir);
  TDS_FUZZ_CHECK(follower_created.ok(), in,
                 follower_created.status().ToString());
  auto follower =
      std::make_unique<StandbyFollower>(std::move(follower_created).value());

  Tick t = 1;
  CkptLogFuzzCoverage coverage;
  // The serially-fed reference: the engine blob at the last successful
  // commit, which every recovery path must reproduce byte-for-byte.
  std::string committed_blob;
  uint64_t committed_gen = 0;
  bool have_commit = false;

  // A successful WriteIncremental (or Compact) moved the committed state;
  // refresh the reference. Injected faults must NOT reach this point.
  const auto record_commit = [&] {
    failpoint::DisarmAll();
    committed_blob = MergedBlob(engine, in);
    committed_gen = log->manifest().generation;
    have_commit = true;
  };
  const auto check_cold_restore = [&] {
    if (!have_commit) return;
    auto loaded = LoadCheckpointLog(decay, options.registry, dir);
    TDS_FUZZ_CHECK(loaded.ok(), in,
                   "cold restore: ", loaded.status().ToString());
    std::vector<AggregateRegistry> shards;
    shards.push_back(std::move(loaded).value());
    auto merged = MergedSnapshot::FromShards(std::move(shards));
    TDS_FUZZ_CHECK(merged.ok(), in, merged.status().ToString());
    std::string blob;
    TDS_FUZZ_CHECK_OK(merged->EncodeRegistryState(&blob), in, "re-encode");
    TDS_FUZZ_CHECK(blob == committed_blob, in,
                   "recovered blob differs from the committed reference "
                   "(gen=", committed_gen, ")");
    ++coverage.cold_restores;
  };

  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(16);
    if (kind < 7) {
      const size_t size = 1 + in.Below(64);
      std::vector<KeyedItem> batch;
      batch.reserve(size);
      for (size_t i = 0; i < size; ++i) {
        if (in.Below(4) == 0) ++t;
        batch.push_back(KeyedItem{in.Below(kKeySpace), t, 1 + in.Below(4)});
      }
      ProducerSessionOptions session_options;
      session_options.staging_capacity = batch.size() + 1;
      auto session = engine.NewProducer(session_options);
      TDS_FUZZ_CHECK(session.ok(), in, session.status().ToString());
      TDS_FUZZ_CHECK_OK((*session)->AddBatch(batch), in, "AddBatch");
      TDS_FUZZ_CHECK_OK((*session)->Flush(), in, "session Flush");
    } else if (kind < 9) {
      // Arm a random checkpoint/standby failpoint: transient (nth-hit),
      // persistent (sticky), or probabilistic, seeded from the stream.
      const char* name = kFailpoints[in.Below(std::size(kFailpoints))];
      const uint64_t mode = in.Below(3);
      if (mode == 0) {
        failpoint::ArmNthHit(name, 1 + in.Below(4));
      } else if (mode == 1) {
        failpoint::Scenario scenario;
        scenario.fire_on_hit = 1;
        scenario.sticky = true;
        failpoint::Arm(name, scenario);
      } else {
        failpoint::ArmProbability(name, 0.4, in.U64());
      }
      ++coverage.faults_armed;
    } else if (kind == 9) {
      failpoint::DisarmAll();
    } else if (kind == 10 || kind == 11) {
      // Incremental checkpoint under whatever faults are live. Success
      // advances the reference; failure must leave recovery EXACTLY on
      // the previous committed generation (checked by later restores).
      const Status wrote = log->WriteIncremental();
      ExpectCleanStatus(wrote, in);
      if (wrote.ok()) {
        record_commit();
        ++coverage.commits;
      }
    } else if (kind == 12) {
      // Compaction is a full commit of the engine's current state, so a
      // success refreshes the reference exactly like WriteIncremental.
      const Status compacted = log->Compact();
      ExpectCleanStatus(compacted, in);
      if (compacted.ok()) {
        record_commit();
        ++coverage.compactions;
      }
    } else if (kind == 13) {
      check_cold_restore();
    } else if (kind == 14) {
      // Standby tails the log under faults; a failed apply must keep its
      // applied watermark (its view stays the last consistent one).
      const uint64_t before = follower->applied_generation();
      const Status applied = follower->ApplyNew();
      ExpectCleanStatus(applied, in);
      if (applied.ok() && have_commit) {
        TDS_FUZZ_CHECK(follower->applied_generation() == committed_gen, in,
                       "standby landed on gen ",
                       follower->applied_generation(), " not committed gen ",
                       committed_gen);
        ++coverage.standby_catchups;
      } else if (!applied.ok()) {
        TDS_FUZZ_CHECK(follower->applied_generation() == before, in,
                       "failed apply moved the standby watermark");
      }
    } else {
      // "Process restart": reopen the log against the same directory. The
      // resumed writer continues after the newest committed generation and
      // its first capture is a full snapshot (epochs restart at zero).
      failpoint::DisarmAll();
      auto reopened = CheckpointLog::Create(engine, dir, log_options);
      TDS_FUZZ_CHECK(reopened.ok(), in, reopened.status().ToString());
      log = std::make_unique<CheckpointLog>(std::move(reopened).value());
      if (have_commit) {
        TDS_FUZZ_CHECK(log->manifest().generation == committed_gen, in,
                       "reopen lost the committed generation");
      }
      ++coverage.log_reopens;
    }

    // Periodic stabilization: faults cleared, one commit must succeed and
    // every recovery path must land on it.
    if ((op + 1) % 48 == 0) {
      failpoint::DisarmAll();
      TDS_FUZZ_CHECK_OK(log->WriteIncremental(), in, "stabilize op=", op);
      record_commit();
      check_cold_restore();
      TDS_FUZZ_CHECK_OK(follower->ApplyNew(), in, "stabilize standby");
      TDS_FUZZ_CHECK(follower->applied_generation() == committed_gen, in,
                     "stabilized standby behind the committed generation");
    }
  }

  // Final failover: clear faults, commit what is pending, then promote the
  // follower — the promoted engine must be byte-identical to the committed
  // reference (and therefore to the primary).
  failpoint::DisarmAll();
  TDS_FUZZ_CHECK_OK(log->WriteIncremental(), in, "final commit");
  record_commit();
  check_cold_restore();
  TDS_FUZZ_CHECK_OK(follower->ApplyNew(), in, "final standby catch-up");
  auto promoted = follower->Promote(EngineOptions(backend));
  TDS_FUZZ_CHECK(promoted.ok(), in, "Promote: ", promoted.status().ToString());
  TDS_FUZZ_CHECK(MergedBlob(**promoted, in) == committed_blob, in,
                 "promoted engine differs from the committed reference");
  (*promoted)->Stop();
  engine.Stop();
  std::filesystem::remove_all(dir);
  return coverage;
}

}  // namespace
}  // namespace tds

#ifndef TDS_LIBFUZZER

#include <gtest/gtest.h>

namespace tds {
namespace {

TEST(CheckpointLogFuzzTest, RecoveryAlwaysLandsOnCommittedGeneration) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "build without -DTDS_FAILPOINTS=ON";
  }
  struct Config {
    const char* label;
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {"CEH", SlidingWindowDecay::Create(96).value(), Backend::kCeh},
      {"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
  };
  for (const Config& config : configs) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << config.label << " seed=" << seed);
      const std::string dir = ::testing::TempDir() + "tds_ckptlog_fuzz_" +
                              config.label + "_" + std::to_string(seed);
      FuzzInput in = FuzzInput::FromSeed(
          seed * 5261 + static_cast<uint64_t>(config.backend), 200 * 128);
      const CkptLogFuzzCoverage coverage = RunCheckpointLogFuzz(
          config.decay, config.backend, dir, 200, in);
      EXPECT_GT(coverage.commits, 0u);
      EXPECT_GT(coverage.faults_armed, 0u);
      EXPECT_GT(coverage.cold_restores, 0u);
      EXPECT_GT(coverage.standby_catchups, 0u);
    }
  }
  failpoint::DisarmAll();
}

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point; without -DTDS_FAILPOINTS the fault surface
// does not exist, so the harness is a no-op (the fuzz build enables both).
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (!tds::kFailpointsEnabled) return 0;
  tds::FuzzInput in(data, size);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tds_ckptlog_fuzzer")
          .string();
  constexpr int kMaxOps = 384;
  if (in.Below(2) == 0) {
    (void)tds::RunCheckpointLogFuzz(
        tds::SlidingWindowDecay::Create(96).value(), tds::Backend::kCeh, dir,
        kMaxOps, in);
  } else {
    (void)tds::RunCheckpointLogFuzz(
        tds::PolynomialDecay::Create(1.0).value(), tds::Backend::kWbmh, dir,
        kMaxOps, in);
  }
  tds::failpoint::DisarmAll();
  std::filesystem::remove_all(dir);
  return 0;
}

#endif  // TDS_LIBFUZZER
