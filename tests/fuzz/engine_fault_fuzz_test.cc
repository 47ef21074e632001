// Dual-mode fault-injection fuzz driver (docs/CORRECTNESS.md): a live
// ShardedAggregateEngine is driven through byte-stream-derived
// interleavings of ingest, queries, snapshots, migrations, and
// checkpoint-log commit/load round-trips while failpoints
// (util/failpoint.h) are armed and disarmed at random. The contract under
// test is the robustness one, not value accuracy: every injected failure
// must surface as a clean Status — never a crash, hang, or audit
// violation — and once the faults are cleared the engine must stabilize:
// Flush succeeds, snapshots publish again, invariants audit clean, and
// every submitted item is accounted for as applied or rejected
// (conservation: nothing lost, nothing duplicated).
//
// Ingest goes through a ProducerSession flushed under
// kBlockWithDeadline with a finite deadline so that even a sticky
// "engine.ring.push" fault ends in kUnavailable (staged items dropped as
// rejected), keeping the driver hang-free by construction. The whole
// suite skips without -DTDS_FAILPOINTS (tools/check.sh runs it in the
// `faults` stage under ASan+UBSan).
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
#include "fuzz_util.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr uint32_t kShards = 3;
constexpr uint32_t kSlices = 24;
constexpr uint64_t kKeySpace = 48;

// Every failpoint the engine stack defines, all fair game for arming.
constexpr const char* kFailpoints[] = {
    "engine.ring.push",      "engine.migrate",
    "registry.merge",        "registry.extract",
    "registry.encode",       "registry.decode",
    "registry.arena.grow",   "ckptlog.segment.write",
    "ckptlog.manifest.commit", "ckptlog.compact",
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
  options.queue_capacity = 256;  // small ring: admission paths get exercised
  return options;
}

/// A status from a fault-bearing operation: success or a clean refusal
/// (injected faults surface as kUnavailable; validation of fuzz-chosen
/// arguments may legitimately say kInvalidArgument).
void ExpectCleanStatus(const Status& status, const FuzzInput& in) {
  if (status.ok()) return;
  TDS_FUZZ_CHECK(status.code() == StatusCode::kUnavailable ||
                     status.code() == StatusCode::kFailedPrecondition ||
                     status.code() == StatusCode::kInvalidArgument,
                 in, "unclean status: ", status.ToString());
}

uint64_t StatsAccounted(const ShardedAggregateEngine& engine) {
  uint64_t total = 0;
  for (const auto& s : engine.Stats()) {
    total += s.items_applied + s.items_rejected;
  }
  return total;
}

struct FaultFuzzCoverage {
  uint64_t checkpoints_ok = 0;
  uint64_t faults_armed = 0;
};

FaultFuzzCoverage RunEngineFaultFuzz(const DecayPtr& decay, Backend backend,
                                     const std::string& ckpt_dir,
                                     int max_ops, FuzzInput& in) {
  failpoint::DisarmAll();
  const auto options = EngineOptions(backend);
  auto created = ShardedAggregateEngine::Create(decay, options);
  TDS_FUZZ_CHECK(created.ok(), in, created.status().ToString());
  auto& engine = **created;
  TDS_FUZZ_CHECK_OK(engine.EnableCheckpointTracking(), in, "tracking");
  std::filesystem::remove_all(ckpt_dir);
  CheckpointLog::Options log_options;
  log_options.backoff.sleeper = [](std::chrono::nanoseconds) {};
  auto log = CheckpointLog::Create(engine, ckpt_dir, log_options);
  TDS_FUZZ_CHECK(log.ok(), in, log.status().ToString());

  Tick t = 1;
  uint64_t submitted = 0;
  FaultFuzzCoverage coverage;
  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(16);
    if (kind < 7) {
      // Ingest under whatever faults are live. Finite deadline: the
      // call must terminate even against a sticky ring-push fault.
      const size_t size = 1 + in.Below(96);
      std::vector<KeyedItem> batch;
      batch.reserve(size);
      for (size_t i = 0; i < size; ++i) {
        if (in.Below(4) == 0) ++t;
        batch.push_back(KeyedItem{in.Below(kKeySpace), t, 1 + in.Below(4)});
      }
      ProducerSessionOptions session_options;
      session_options.staging_capacity = batch.size() + 1;
      session_options.backpressure = BackpressurePolicy::kBlockWithDeadline;
      session_options.block_deadline = std::chrono::milliseconds(50);
      auto session = engine.NewProducer(session_options);
      TDS_FUZZ_CHECK(session.ok(), in, session.status().ToString());
      ExpectCleanStatus((*session)->AddBatch(batch), in);
      ExpectCleanStatus((*session)->Flush(), in);
      // Accepted or rejected, every item is now the engine's to
      // account for (partial admission lands in items_rejected).
      submitted += size;
    } else if (kind < 9) {
      // Queries against possibly-null published snapshots: any double
      // is fine, crashing or hanging is not.
      (void)engine.QueryKey(in.Below(kKeySpace), t);
      (void)engine.KeyCount();
    } else if (kind == 9) {
      auto merged = engine.Snapshot();
      if (!merged.ok()) ExpectCleanStatus(merged.status(), in);
    } else if (kind == 10) {
      // Migration under faults: refusal must leave routing coherent —
      // proven by later conservation + audits, not asserted here.
      std::vector<uint32_t> slices;
      const uint32_t first = static_cast<uint32_t>(in.Below(kSlices));
      const uint32_t count = 1 + static_cast<uint32_t>(in.Below(5));
      for (uint32_t i = 0; i < count; ++i) {
        slices.push_back((first + i) % kSlices);
      }
      ExpectCleanStatus(
          engine.MigrateSlices(slices,
                               static_cast<uint32_t>(in.Below(kShards))),
          in);
    } else if (kind == 11) {
      // Checkpoint-log commit/load round-trip under faults. A load is
      // only attempted after a commit that reported success — and then
      // it must decode (possibly via .prev) unless a fault hits the
      // load path itself.
      const Status wrote = log->WriteIncremental();
      ExpectCleanStatus(wrote, in);
      if (wrote.ok()) {
        ++coverage.checkpoints_ok;
        auto loaded = LoadCheckpointLog(decay, options.registry, ckpt_dir);
        if (!loaded.ok()) ExpectCleanStatus(loaded.status(), in);
      }
    } else if (kind < 15) {
      // Arm a random failpoint with a random scenario. Probability
      // scenarios are seeded from the input stream: replayable.
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
    } else {
      failpoint::DisarmAll();
    }

    // Periodic stabilization: with faults cleared the engine must be
    // fully healthy again — this is the recovery half of the contract.
    if ((op + 1) % 40 == 0) {
      failpoint::DisarmAll();
      TDS_FUZZ_CHECK_OK(engine.Flush(), in, "Flush op=", op);
      auto merged = engine.Snapshot();
      TDS_FUZZ_CHECK(merged.ok(), in,
                     "Snapshot: ", merged.status().ToString());
      AggregateRegistry registry = std::move(*merged).ReleaseRegistry();
      TDS_FUZZ_CHECK_OK(registry.AuditInvariants(), in, "audit op=", op);
      TDS_FUZZ_CHECK(StatsAccounted(engine) == submitted, in,
                     "conservation: accounted=", StatsAccounted(engine),
                     " submitted=", submitted);
    }
  }

  // Final settle: conservation plus a clean audit after the storm.
  failpoint::DisarmAll();
  TDS_FUZZ_CHECK_OK(engine.Flush(), in, "final Flush");
  TDS_FUZZ_CHECK(StatsAccounted(engine) == submitted, in,
                 "final conservation: accounted=", StatsAccounted(engine),
                 " submitted=", submitted);
  auto merged = engine.Snapshot();
  TDS_FUZZ_CHECK(merged.ok(), in,
                 "final Snapshot: ", merged.status().ToString());
  AggregateRegistry registry = std::move(*merged).ReleaseRegistry();
  TDS_FUZZ_CHECK_OK(registry.AuditInvariants(), in, "final audit");
  engine.Stop();
  return coverage;
}

void CleanupCheckpoint(const std::string& ckpt_dir) {
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
}

}  // namespace
}  // namespace tds

#ifndef TDS_LIBFUZZER

#include <gtest/gtest.h>

namespace tds {
namespace {

TEST(EngineFaultFuzzTest, InjectedFaultsNeverCrashHangOrCorrupt) {
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
  const std::string ckpt_dir =
      ::testing::TempDir() + "tds_fault_fuzz_ckptlog";
  for (const Config& config : configs) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << config.label << " seed=" << seed);
      FuzzInput in = FuzzInput::FromSeed(
          seed * 9176 + static_cast<uint64_t>(config.backend), 220 * 128);
      const FaultFuzzCoverage coverage =
          RunEngineFaultFuzz(config.decay, config.backend, ckpt_dir, 220,
                             in);
      EXPECT_GT(coverage.faults_armed, 0u);
      EXPECT_GT(coverage.checkpoints_ok, 0u);
    }
  }
  failpoint::DisarmAll();
  CleanupCheckpoint(ckpt_dir);
}

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point. Without -DTDS_FAILPOINTS the harness is a
// no-op (the fault surface does not exist); the fuzz build enables both.
// Coverage counters are bookkeeping for the deterministic wrapper, not an
// invariant arbitrary byte streams could promise.
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (!tds::kFailpointsEnabled) return 0;
  tds::FuzzInput in(data, size);
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "tds_fault_fuzzer_ckptlog")
          .string();
  constexpr int kMaxOps = 512;
  if (in.Below(2) == 0) {
    (void)tds::RunEngineFaultFuzz(
        tds::SlidingWindowDecay::Create(96).value(), tds::Backend::kCeh,
        ckpt_dir, kMaxOps, in);
  } else {
    (void)tds::RunEngineFaultFuzz(tds::PolynomialDecay::Create(1.0).value(),
                                  tds::Backend::kWbmh, ckpt_dir, kMaxOps,
                                  in);
  }
  tds::failpoint::DisarmAll();
  tds::CleanupCheckpoint(ckpt_dir);
  return 0;
}

#endif  // TDS_LIBFUZZER
