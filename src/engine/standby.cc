#include "engine/standby.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "engine/merged_snapshot.h"
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

  const bool base_covers_applied =
      !manifest.entries.empty() &&
      manifest.entries.front().shard == CheckpointLog::kBaseShard &&
      manifest.entries.front().gen_hi > applied_generation_;
  if (base_covers_applied || applied_generation_ == 0) {
    // Compaction rewrote generations we already hold (or we hold nothing):
    // rebuild aside, then swap — the old view serves until the new one is
    // fully validated.
    StatusOr<AggregateRegistry> rebuilt =
        ckptlog_internal::FoldManifest(decay_, options_, dir_, manifest);
    if (!rebuilt.ok()) return rebuilt.status();
    registry_ = std::move(rebuilt).value();
    applied_generation_ = manifest.generation;
    TDS_AUDIT_MUTATION(AuditInvariants());
    return Status::OK();
  }

  // Incremental catch-up: apply each generation newer than ours, in order.
  Status caught_up = ckptlog_internal::ApplyGenerationsAfter(
      registry_, decay_, options_, dir_, manifest, &applied_generation_);
  if (!caught_up.ok()) return caught_up;
  // Commits without surviving segments (e.g. a compaction emptied by GC of
  // a later incremental) still advance the watermark.
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
  // The registry moves into the snapshot below; from here on the follower
  // is consumed even if the restore fails.
  promoted_ = true;
  std::vector<AggregateRegistry> shards;
  shards.push_back(std::move(registry_));
  StatusOr<MergedSnapshot> snapshot =
      MergedSnapshot::FromShards(std::move(shards));
  if (!snapshot.ok()) return snapshot.status();
  Status restored = (*engine)->Restore(std::move(snapshot).value());
  if (!restored.ok()) return restored;
  promoted_ = true;
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
