#ifndef TDS_ENGINE_STANDBY_H_
#define TDS_ENGINE_STANDBY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "util/status.h"

namespace tds {

/// Warm-standby follower over a CheckpointLog directory: tails the
/// manifest, applies newly committed generations through the same
/// audit-on-decode funnel the loaders use, and can be promoted to a live
/// engine whose registry state is byte-identical to the primary's last
/// committed checkpoint.
///
/// The follower holds one folded registry plus the generation it has
/// applied through. ApplyNew() is cheap when little has been committed:
/// catch-up work is proportional to the segments written since the last
/// apply, not to the key population — unless the manifest's first entry
/// group (always a full state) is newer than the follower's view. Then a
/// full commit replaced the history the follower applied, and it rebuilds
/// from the manifest on a fresh registry. A rebuild is needed even when
/// the follower had applied everything before that commit: a primary that
/// reopened the log without restoring from it writes no dead keys for the
/// history it replaces. Either way a failed or injected-fault apply leaves
/// the follower serving its last consistent view ("standby.apply" honors
/// unchanged-on-error).
///
/// Reads (Query/QueryTotal/KeyCount) serve the follower's current view at
/// any time; they never block on the primary.
class StandbyFollower {
 public:
  /// Opens a follower for the log at `dir`. `decay`/`options` must match
  /// the primary engine's (the manifest fingerprint is checked on every
  /// apply). The directory may be empty — the follower starts at
  /// generation 0 and picks up the first committed manifest.
  static StatusOr<StandbyFollower> Create(
      DecayPtr decay, const AggregateRegistry::Options& options,
      std::string dir);

  StandbyFollower(StandbyFollower&&) = default;
  StandbyFollower& operator=(StandbyFollower&&) = default;

  /// Tails the manifest and applies every generation committed since the
  /// last successful apply. No committed manifest yet (fresh directory) is
  /// not an error — the follower just stays at generation 0. On any error
  /// the follower's view is unchanged.
  Status ApplyNew();

  /// Final ApplyNew, then moves the follower's registry into a fresh live
  /// engine (Create + Restore). The follower is consumed: further use
  /// fails with kFailedPrecondition.
  StatusOr<std::unique_ptr<ShardedAggregateEngine>> Promote(
      const ShardedAggregateEngine::Options& options);

  /// Structural audit of the follower's view (delegates to the registry's
  /// own audit plus follower-local invariants).
  Status AuditInvariants();

  /// Reads against the follower's current view. `now` below the view's
  /// clock is served at the clock (decayed aggregates never rewind).
  double Query(uint64_t key, Tick now) const;
  double QueryTotal(Tick now) const;
  size_t KeyCount() const { return registry_.KeyCount(); }

  /// Manifest generation the follower has applied through.
  uint64_t applied_generation() const { return applied_generation_; }

 private:
  StandbyFollower(DecayPtr decay, AggregateRegistry::Options options,
                  std::string dir, AggregateRegistry registry)
      : decay_(std::move(decay)),
        options_(options),
        dir_(std::move(dir)),
        registry_(std::move(registry)) {}

  DecayPtr decay_;
  AggregateRegistry::Options options_;
  std::string dir_;
  AggregateRegistry registry_;
  uint64_t applied_generation_ = 0;
  bool promoted_ = false;
};

}  // namespace tds

#endif  // TDS_ENGINE_STANDBY_H_
