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
/// population; a full checkpoint is one generation of full-capture
/// segments (every shard captured since epoch 0), and its manifest names
/// nothing older.
///
/// On-disk layout (one directory per log):
///   seg-<generation>-s<shard>.tds   one shard's segment for a generation
///   base-<glo>-<ghi>.tds            older logs' compacted base: read and
///                                   garbage-collected, never written
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
/// Compaction is a full commit: it captures every shard in full and
/// commits a manifest naming only those segments, bounding live bytes by
/// (current population + churn since the last full commit) instead of
/// total history. No file is decoded to write it. WriteIncremental
/// compacts instead of committing plainly when a plain commit would leave
/// more than Options::compact_min_segments live files; a crashed
/// compaction leaves the previous manifest generation intact.
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
///   "ckptlog.compact"         fails a compaction (Compact, or a
///                             WriteIncremental past the segment bound)
///                             before any capture or IO
class CheckpointLog {
 public:
  struct Options {
    /// Retries per failed segment/manifest write on kUnavailable (total
    /// attempts = io_retries + 1). 0 disables retrying.
    uint32_t io_retries = 2;
    /// Backoff schedule for those retries; supply Options::backoff.sleeper
    /// to make waits deterministic (tests inject a recorder).
    ExponentialBackoff::Options backoff;
    /// WriteIncremental compacts (commits in full) instead of adding a
    /// plain generation that would leave more than this many live files.
    /// 0 disables auto-compaction.
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
    uint64_t generation = 0;  ///< bumped by one on every commit
    /// Config fingerprint — a manifest only applies to a matching engine.
    std::string decay_name;
    uint64_t backend = 0;
    double epsilon = 0.0;
    int64_t start = 0;
    /// Per-shard committed checkpoint-epoch watermarks (size == shards).
    std::vector<uint64_t> shard_epochs;
    /// Live files, ordered: segments by (gen_lo, shard) ascending, after
    /// at most one base that an older writer compacted. The first entry
    /// group (one generation's segments, or the base) is always a full
    /// state.
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
  /// (RestoreFromCheckpointLog) if the history should carry over. The
  /// first commit after Create is a full one either way (in-memory epochs
  /// restart at zero): it replaces the history with `engine`'s state.
  static StatusOr<CheckpointLog> Create(ShardedAggregateEngine& engine,
                                        std::string dir,
                                        const Options& options);

  CheckpointLog(CheckpointLog&&) = default;
  CheckpointLog& operator=(CheckpointLog&&) = default;

  /// Flushes the engine, captures every shard's delta since its committed
  /// watermark at one route-table cut, writes one segment per shard, and
  /// commits a manifest naming them: one generation per call. When that
  /// would leave more than Options::compact_min_segments live files, the
  /// call is a Compact() instead. On any error the previous manifest
  /// generation (and the in-memory watermarks) are unchanged — a retried
  /// call re-captures a superset of the lost delta.
  Status WriteIncremental();

  /// Commits a full generation: captures every shard since epoch 0, writes
  /// one segment per shard, and commits a manifest naming only them. Needs
  /// a running engine. A crash or injected fault leaves the previous
  /// generation intact.
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

  /// Captures every shard since `since` (one epoch per shard) and commits
  /// one generation; all-zero epochs make it a full commit.
  Status Commit(const std::vector<uint64_t>& since);
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

/// Decodes and applies a manifest's files (validating manifest checksums,
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

/// Applies every entry group `manifest` lists after `*applied` onto
/// `registry`, in ascending order: a group (one generation's segments, or
/// an older writer's base) is read, decoded and applied together, then
/// `*applied` moves to its gen_hi. Groups with gen_hi <= `*applied` are
/// skipped. A group applies atomically, so on error `registry` holds every
/// group before the failing one and `*applied` names the last of them. The
/// one reader loop of recovery and the standby follower.
Status ApplyGenerationsAfter(AggregateRegistry& registry,
                             const DecayPtr& decay,
                             const AggregateRegistry::Options& options,
                             const std::string& dir,
                             const CheckpointLog::Manifest& manifest,
                             uint64_t* applied);

/// A fresh registry plus ApplyGenerationsAfter from generation 0: the
/// checkpointed engine state of one already-loaded manifest. The standby
/// follower uses this for full rebuilds; LoadCheckpointLog is
/// LoadManifest + this.
StatusOr<AggregateRegistry> FoldManifest(
    DecayPtr decay, const AggregateRegistry::Options& options,
    const std::string& dir, const CheckpointLog::Manifest& manifest);

}  // namespace ckptlog_internal

}  // namespace tds

#endif  // TDS_ENGINE_CHECKPOINT_LOG_H_
