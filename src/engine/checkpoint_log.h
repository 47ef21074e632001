#ifndef TDS_ENGINE_CHECKPOINT_LOG_H_
#define TDS_ENGINE_CHECKPOINT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "engine/registry.h"
#include "util/backoff.h"
#include "util/status.h"

namespace tds {

/// Crash-consistent, incremental segment/manifest checkpointing — the
/// engine's one checkpoint format. Write cost scales with *churn*, not key
/// population; a full checkpoint is just a manifest naming one base file
/// (or one generation of full-capture segments).
///
/// On-disk layout (one directory per log):
///   seg-<generation>-s<shard>.tds   incremental segment (one shard's delta)
///   base-<glo>-<ghi>.tds            compacted base (generations glo..ghi)
///   MANIFEST.tds                    the manifest; .prev = prior generation
/// Every file carries the engine/checkpoint_io.h "TDSCKPT1" integrity
/// footer, and the manifest additionally records each live file's length
/// and FNV-1a checksum — a reader validates twice (manifest entry, then
/// the file's own footer) before decoding anything.
///
/// A segment's payload ("TDSSEG1") is the shard's dead-key list plus a
/// registry sub-blob ("TDSREG1") holding exactly the keys dirtied since
/// the shard's last committed checkpoint epoch — so applying a segment is
/// AggregateRegistry::Decode + MergeFrom, the same audit-on-decode funnel
/// snapshots use. The manifest ("TDSMAN1") names the live segments, the
/// config fingerprint, and each shard's committed epoch watermark.
///
/// Commit protocol: segments are written first (tmp→fsync→rename; until
/// the manifest names them they are invisible garbage), then the manifest
/// commits via tmp→fsync→rotate-to-.prev→rename→dir-sync, all or nothing:
/// a crash at any point leaves the previous manifest generation fully
/// loadable (at MANIFEST.tds or, between the rotate and the rename, at
/// MANIFEST.tds.prev alone). Files no
/// longer named by either the manifest or its .prev are garbage-collected
/// after commit.
///
/// Compaction folds every live segment into one base file and commits a
/// manifest naming only it, bounding live bytes by (current population +
/// churn since the last compaction) instead of total history. Writers
/// auto-compact when the live segment count crosses
/// Options::compact_min_segments; a crashed compaction leaves the
/// pre-compaction manifest generation intact.
///
/// Transient IO failures (Status kUnavailable) retry up to
/// Options::io_retries times with bounded exponential backoff
/// (util/backoff.h; the sleeper is injectable, so retry schedules are
/// deterministic under failpoints). Injected faults count as transient —
/// that is the point of the retry satellite.
///
/// Failpoints (all honor unchanged-on-error: in-memory state and the
/// committed manifest survive):
///   "ckptlog.segment.write"  fails a segment write before any IO
///   "ckptlog.manifest.commit" fails after the manifest temp file is
///                             durable but before the commit renames
///   "ckptlog.compact"         fails a compaction before any IO
class CheckpointLog {
 public:
  struct Options {
    /// Retries per failed segment/manifest write on kUnavailable (total
    /// attempts = io_retries + 1). 0 disables retrying.
    uint32_t io_retries = 2;
    /// Backoff schedule for those retries; supply Options::backoff.sleeper
    /// to make waits deterministic (tests inject a recorder).
    ExponentialBackoff::Options backoff;
    /// WriteIncremental auto-compacts once the manifest holds more than
    /// this many live files. 0 disables auto-compaction.
    size_t compact_min_segments = 32;
  };

  /// One live file as the manifest records it.
  struct ManifestEntry {
    std::string file;       ///< name within the log directory
    uint32_t shard = 0;     ///< writing shard; kBaseShard for a base
    uint64_t gen_lo = 0;    ///< first generation folded into the file
    uint64_t gen_hi = 0;    ///< last generation (== gen_lo for segments)
    uint64_t length = 0;    ///< whole-file length, footer included
    uint64_t checksum = 0;  ///< FNV-1a of the whole file
  };
  static constexpr uint32_t kBaseShard = 0xffffffffu;

  /// The decoded manifest ("TDSMAN1"). All Status-returning methods are
  /// const or static: the codec mutates only its explicit outputs.
  struct Manifest {
    uint64_t generation = 0;  ///< bumped by every commit (incl. compaction)
    /// Config fingerprint — a manifest only applies to a matching engine.
    std::string decay_name;
    uint64_t backend = 0;
    double epsilon = 0.0;
    int64_t start = 0;
    /// Per-shard committed checkpoint-epoch watermarks (size == shards).
    std::vector<uint64_t> shard_epochs;
    /// Live files, ordered: at most one base first, then segments by
    /// (gen_lo, shard) ascending.
    std::vector<ManifestEntry> entries;

    Status Encode(std::string* out) const;
    static StatusOr<Manifest> Decode(std::string_view data);
    /// Structural audit: entry ordering, generation bounds, base
    /// uniqueness, name uniqueness. Decode runs it; commit paths re-run it
    /// on what they are about to publish.
    Status AuditInvariants() const;
  };

  /// Opens (creating the directory's manifest lineage lazily) a checkpoint
  /// log for `engine`, which must already have checkpoint tracking enabled
  /// (EnableCheckpointTracking) and must outlive the log. If
  /// HasCheckpointLog(dir), the log resumes *writing* after its newest
  /// generation — restore the engine from it first
  /// (RestoreFromCheckpointLog) if the history should carry over; the
  /// first capture after Create is a full snapshot either way (in-memory
  /// epochs restart at zero).
  static StatusOr<CheckpointLog> Create(ShardedAggregateEngine& engine,
                                        std::string dir,
                                        const Options& options);

  CheckpointLog(CheckpointLog&&) = default;
  CheckpointLog& operator=(CheckpointLog&&) = default;

  /// Flushes the engine, captures every shard's delta since its committed
  /// watermark at one route-table cut, writes one segment per shard, and
  /// commits a manifest naming them. On any error the previous manifest
  /// generation (and the in-memory watermarks) are unchanged — a retried
  /// call re-captures a superset of the lost delta. Auto-compacts per
  /// Options::compact_min_segments after a successful commit; a compaction
  /// failure is surfaced but the incremental commit has already landed.
  Status WriteIncremental();

  /// Folds all live files into one base and commits a manifest naming only
  /// it. A crash or injected fault leaves the previous generation intact.
  Status Compact();

  /// The last committed manifest (empty, generation 0, before the first
  /// WriteIncremental on a fresh directory).
  const Manifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }

  /// Total bytes across the manifest's live files — the write-amplification
  /// metric the bench records.
  uint64_t LiveBytes() const;

 private:
  CheckpointLog(ShardedAggregateEngine& engine, std::string dir,
                const Options& options)
      : engine_(&engine), dir_(std::move(dir)), options_(options) {}

  Status CommitManifest(Manifest next);
  /// Runs `write` (which must be unchanged-on-error), retrying
  /// kUnavailable per Options::io_retries.
  template <typename Fn>
  Status WithRetry(Fn&& write);
  void CollectGarbage();

  ShardedAggregateEngine* engine_;
  std::string dir_;
  Options options_;
  Manifest manifest_;  ///< last committed
};

/// True when `dir` holds a manifest generation: MANIFEST.tds, or only its
/// .prev (what a crash between the commit's rotate and rename leaves).
/// CheckpointLog::Create resumes writing exactly when this holds, so a
/// caller that should carry the history over restores
/// (RestoreFromCheckpointLog) on the same test before calling Create.
bool HasCheckpointLog(const std::string& dir);

/// Loads the newest committed manifest in `dir` (falling back to the .prev
/// generation when the primary fails validation — both failing reports
/// both errors).
StatusOr<CheckpointLog::Manifest> LoadManifest(const std::string& dir);

/// Decodes and folds a manifest's files (validating manifest checksums,
/// file footers, and the registry codec's invariants) into one registry
/// equal to the checkpointed engine state. `decay`/`options` must match
/// the engine the log came from.
StatusOr<AggregateRegistry> LoadCheckpointLog(
    DecayPtr decay, const AggregateRegistry::Options& options,
    const std::string& dir);

/// LoadCheckpointLog + Restore onto a fresh engine (no items applied, no
/// live keys; kFailedPrecondition otherwise). On any error the engine
/// should be discarded — see ShardedAggregateEngine::Restore.
Status RestoreFromCheckpointLog(ShardedAggregateEngine& engine,
                                const std::string& dir);

namespace ckptlog_internal {

/// Segment codec ("TDSSEG1"), exposed for the fuzz driver. All
/// Status-returning methods const/static, like Manifest.
struct Segment {
  uint32_t shard = 0;
  uint64_t gen_lo = 0;
  uint64_t gen_hi = 0;
  uint64_t epoch = 0;  ///< shard epoch watermark this segment advances to
  std::vector<uint64_t> dead_keys;  ///< sorted, strictly increasing
  std::string registry_blob;        ///< partial "TDSREG1" blob

  Status Encode(std::string* out) const;
  static StatusOr<Segment> Decode(std::string_view data);
  Status AuditInvariants() const;
};

/// Applies every generation `manifest` lists after `*applied` onto
/// `registry`, in ascending order: each generation's segments are read,
/// decoded and applied together, then `*applied` moves to it. The base
/// entry is skipped. A generation applies atomically, so on error
/// `registry` holds every generation before the failing one and `*applied`
/// names the last of them. The one catch-up loop of FoldManifest and the
/// standby follower.
Status ApplyGenerationsAfter(AggregateRegistry& registry,
                             const DecayPtr& decay,
                             const AggregateRegistry::Options& options,
                             const std::string& dir,
                             const CheckpointLog::Manifest& manifest,
                             uint64_t* applied);

/// Folds one already-loaded manifest's files into a registry equal to the
/// checkpointed engine state: the base (if any) seeds it, then each
/// surviving generation applies in ascending order. The standby follower
/// uses this for full rebuilds; LoadCheckpointLog is LoadManifest + this.
StatusOr<AggregateRegistry> FoldManifest(
    DecayPtr decay, const AggregateRegistry::Options& options,
    const std::string& dir, const CheckpointLog::Manifest& manifest);

}  // namespace ckptlog_internal

}  // namespace tds

#endif  // TDS_ENGINE_CHECKPOINT_LOG_H_
