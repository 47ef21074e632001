#include "engine/standby.h"

#include <algorithm>
#include <utility>

#include "util/audit.h"
#include "util/failpoint.h"

namespace tds {

StatusOr<StandbyFollower> StandbyFollower::Create(
    DecayPtr decay, const AggregateRegistry::Options& options,
    std::string dir) {
  auto registry = AggregateRegistry::Create(decay, options);
  if (!registry.ok()) return registry.status();
  return StandbyFollower(std::move(decay), options, std::move(dir),
                         std::move(registry).value());
}

/// Catch-up. Each committed generation applies atomically, so any failure
/// (including the "standby.apply" injected fault) leaves the follower
/// serving its last fully applied — still consistent — view.
Status StandbyFollower::ApplyNew() {
  TDS_FAILPOINT_RETURN("standby.apply");
  if (promoted_) {
    return Status::FailedPrecondition("standby follower already promoted");
  }
  if (!HasCheckpointLog(dir_)) {
    return Status::OK();  // primary has not committed anything yet
  }
  StatusOr<CheckpointLog::Manifest> loaded = LoadManifest(dir_);
  if (!loaded.ok()) return loaded.status();
  CheckpointLog::Manifest manifest = std::move(loaded).value();
  if (manifest.decay_name != decay_->Name()) {
    return Status::InvalidArgument("manifest decay mismatch: " +
                                   manifest.decay_name);
  }
  if (manifest.generation < applied_generation_) {
    return Status::InvalidArgument(
        "manifest generation regressed below the follower's");
  }
  if (manifest.generation == applied_generation_) return Status::OK();

  if (!manifest.entries.empty() &&
      manifest.entries.front().gen_hi > applied_generation_) {
    // The manifest's first entry group is a full state newer than our view:
    // a full commit replaced the history we hold (or we hold nothing).
    // Rebuild aside, then swap — the old view serves until the new one is
    // fully validated.
    StatusOr<AggregateRegistry> rebuilt =
        ckptlog_internal::FoldManifest(decay_, options_, dir_, manifest);
    if (!rebuilt.ok()) return rebuilt.status();
    registry_ = std::move(rebuilt).value();
  } else {
    // Incremental catch-up: apply each generation newer than ours, in order.
    Status caught_up = ckptlog_internal::ApplyGenerationsAfter(
        registry_, decay_, options_, dir_, manifest, &applied_generation_);
    if (!caught_up.ok()) return caught_up;
  }
  // An older writer's compaction committed a generation with no entries
  // of its own; the watermark still moves to the manifest's generation.
  applied_generation_ = manifest.generation;
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardedAggregateEngine>> StandbyFollower::Promote(
    const ShardedAggregateEngine::Options& options) {
  if (promoted_) {
    return Status::FailedPrecondition("standby follower already promoted");
  }
  Status caught_up = ApplyNew();
  if (!caught_up.ok()) return caught_up;
  auto engine = ShardedAggregateEngine::Create(decay_, options);
  if (!engine.ok()) return engine.status();
  // The registry moves into the engine below; from here on the follower
  // is consumed even if the restore fails.
  promoted_ = true;
  Status restored = (*engine)->Restore(std::move(registry_));
  if (!restored.ok()) return restored;
  return std::move(engine).value();
}

Status StandbyFollower::AuditInvariants() {
  if (promoted_) {
    return Status::FailedPrecondition("standby follower already promoted");
  }
  return registry_.AuditInvariants();
}

double StandbyFollower::Query(uint64_t key, Tick now) const {
  return registry_.Query(key, std::max(now, registry_.now()));
}

double StandbyFollower::QueryTotal(Tick now) const {
  return registry_.QueryTotal(std::max(now, registry_.now()));
}

}  // namespace tds
