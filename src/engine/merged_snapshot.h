#ifndef TDS_ENGINE_MERGED_SNAPSHOT_H_
#define TDS_ENGINE_MERGED_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/registry.h"
#include "util/status.h"

namespace tds {

/// One combined, immutable-by-convention view over every shard of a
/// ShardedAggregateEngine at a single engine-wide cut tick — the
/// "top decayed-sum keys across all flows" read the paper's per-key
/// deployments (RED flow state, per-customer usage) ask for.
///
/// Built from one structural copy of each shard's registry
/// (AggregateRegistry::Copy, taken on the shard writers) folded together
/// with AggregateRegistry::MergeFrom. Because per-key aggregates are pure
/// functions of their own update sequences and the WBMH layout is a pure
/// function of the clock, the merged registry is bit-identical to a single
/// registry fed the same items serially — the merged registry blob
/// (EncodeRegistryState) can be byte-compared against a serial reference's
/// EncodeState (see tests/engine_merge_test.cc).
///
/// The cut tick is the maximum shard clock at capture: the shard that
/// received the stream's newest item defines "now", and lagging shards'
/// keys keep their own last-arrival state un-advanced (exactly as a serial
/// registry would hold them).
class MergedSnapshot {
 public:
  struct WeightedKey {
    uint64_t key = 0;
    double weight = 0.0;
  };

  /// Folds shard registries (at least one: copies, or decoded blobs) into
  /// one view. All registries must share decay/backend/epsilon/start and
  /// have pairwise-disjoint keys; they are consumed.
  static StatusOr<MergedSnapshot> FromShards(
      std::vector<AggregateRegistry> shards);

  MergedSnapshot(MergedSnapshot&&) = default;
  MergedSnapshot& operator=(MergedSnapshot&&) = default;

  /// The engine-wide cut tick (the merged registry clock).
  Tick cut() const { return registry_.now(); }

  size_t KeyCount() const { return registry_.KeyCount(); }
  bool Contains(uint64_t key) const { return registry_.Contains(key); }

  /// Decayed sum of `key` evaluated at max(now, cut()); 0 for absent keys.
  double Query(uint64_t key, Tick now) const;

  /// Sum over all keys at max(now, cut()).
  double QueryTotal(Tick now) const;

  /// All live keys, ascending.
  std::vector<uint64_t> Keys() const;

  /// The k heaviest keys by decayed weight at max(now, cut()), descending
  /// weight with ascending key as the tie-break.
  std::vector<WeightedKey> TopK(size_t k, Tick now) const;

  /// The combined registry itself (key iteration, audits, byte comparison
  /// against a serially-fed reference).
  const AggregateRegistry& registry() const { return registry_; }

  /// Consumes the snapshot, yielding the merged registry (which the
  /// engine's Restore() re-partitions across shards).
  AggregateRegistry ReleaseRegistry() && { return std::move(registry_); }

  /// The merged registry blob (what a serially-fed reference's EncodeState
  /// must byte-match). Non-const for the same reason as
  /// AggregateRegistry::EncodeState (WBMH counters sync and the layout log
  /// trims first).
  Status EncodeRegistryState(std::string* out) {
    return registry_.EncodeState(out);
  }

 private:
  explicit MergedSnapshot(AggregateRegistry registry)
      : registry_(std::move(registry)) {}

  AggregateRegistry registry_;
};

}  // namespace tds

#endif  // TDS_ENGINE_MERGED_SNAPSHOT_H_
