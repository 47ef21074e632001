#ifndef TDS_ENGINE_PRODUCER_SESSION_H_
#define TDS_ENGINE_PRODUCER_SESSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/engine.h"
#include "engine/registry.h"
#include "engine/wait_strategy.h"
#include "util/status.h"

namespace tds {

/// A per-producer ingest handle (ShardedAggregateEngine::NewProducer).
///
/// A session owns per-shard staging buffers: Add/AddBatch pre-group items
/// by target shard locally — against a cached route-table snapshot, with
/// no shared lock and no allocation on the steady-state path — and a
/// flush publishes each shard's whole pre-grouped run to that shard's
/// SPSC ring in one push episode. Flushes happen explicitly (Flush()),
/// automatically once `staging_capacity` items are staged, and
/// best-effort on destruction.
///
/// Threading: a session is intentionally single-threaded — one handle per
/// producer thread (the engine stays fully thread-safe across sessions;
/// this is what removes the shared lock from the hot path). The handle
/// itself therefore takes no locks of its own; the only synchronization a
/// flush touches is the engine's annotated flush fence and per-shard
/// producer mutex.
///
/// Route epochs: staged runs are grouped under the generation of the
/// session's cached table. If a migration published a newer table since,
/// the flush re-partitions the staged items against the fresh snapshot
/// before pushing (restoring per-shard tick order by a stable tick sort),
/// so a staged item never lands on a stale shard — migrations can never
/// double-count it. The engine's flush fence keeps the table stable for
/// the duration of the push.
///
/// Error contract: a stopped engine returns kFailedPrecondition and
/// *keeps* the items staged; a flush that misses its admission deadline
/// (a finite block_deadline passed on a full ring or a held fence) returns
/// kUnavailable, drops the still-unpushed staged items, and counts them in
/// ShardStats::items_rejected (and in stats()). One deadline spans a whole
/// flush episode; a block_deadline of 0 makes one non-blocking attempt
/// per shard.
///
/// Ordering: within a session, per-shard runs preserve Add order.
/// Concurrent sessions must coordinate externally (e.g. epoch-sliced
/// ingestion: same tick within a round, Flush(), then barrier).
class ProducerSession {
 public:
  /// This session's counters; SessionTotals() aggregates engine-wide.
  struct Stats {
    uint64_t staged_now = 0;      ///< items currently staged, not yet flushed
    uint64_t items_staged = 0;    ///< cumulative items accepted into staging
    uint64_t items_flushed = 0;   ///< cumulative items handed to the rings
    uint64_t items_rejected = 0;  ///< staged items dropped past a deadline
    uint64_t flush_stalls = 0;    ///< flush episodes that had to wait
  };

  /// Best-effort flush of anything still staged (errors are swallowed —
  /// flush explicitly if you need the Status), then closes the session.
  ~ProducerSession();

  ProducerSession(const ProducerSession&) = delete;
  ProducerSession& operator=(const ProducerSession&) = delete;

  /// Stages one item (auto-flushes once staging_capacity is reached).
  Status Add(uint64_t key, Tick t, uint64_t value);

  /// Stages a batch, auto-flushing every staging_capacity items. On a
  /// flush error the not-yet-staged remainder of `items` is left to the
  /// caller (staged-item accounting follows the flush contract above).
  Status AddBatch(std::span<const KeyedItem> items);

  /// Publishes every staged run to its shard ring. Items become visible
  /// to queries once the shard writers apply them (engine Flush() waits
  /// for that).
  Status Flush();

  /// Items currently staged (not yet handed to the rings).
  size_t staged() const { return staged_now_; }

  Stats stats() const;

  /// Cheap self-check: staging buffers and counters agree. kInternal on
  /// violation (exercised by the session tests and fuzz driver).
  Status AuditInvariants() const;

 private:
  friend class ShardedAggregateEngine;

  ProducerSession(ShardedAggregateEngine* engine,
                  const ProducerSessionOptions& options);

  /// Re-groups staged runs under `table` after a route-epoch change.
  void RepartitionStaged(const ShardedAggregateEngine::RouteTable& table);

  /// Drops all staged items as rejected (admission deadline missed),
  /// counting them per target shard. Returns how many were dropped.
  uint64_t DropStagedAsRejected();

  /// Publishes the per-slice offered-load counts to the engine and
  /// resets them.
  void PublishSliceCounts();

  ShardedAggregateEngine* engine_;
  ProducerSessionOptions options_;
  std::chrono::nanoseconds block_deadline_;

  /// Cached route snapshot the staged runs are grouped under (null until
  /// the first Add; refreshed by every flush).
  const ShardedAggregateEngine::RouteTable* table_ = nullptr;

  std::vector<std::vector<KeyedItem>> runs_;  ///< per-shard staging
  std::vector<KeyedItem> scratch_;            ///< repartition workspace
  /// Per-slice offered-load accumulator (empty on single-shard engines,
  /// where the rebalancer never runs).
  std::vector<uint64_t> slice_counts_;
  size_t staged_now_ = 0;

  Stats stats_;
};

}  // namespace tds

#endif  // TDS_ENGINE_PRODUCER_SESSION_H_
