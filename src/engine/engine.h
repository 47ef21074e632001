#ifndef TDS_ENGINE_ENGINE_H_
#define TDS_ENGINE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/merged_snapshot.h"
#include "engine/registry.h"
#include "engine/spsc_ring.h"
#include "engine/wait_strategy.h"
#include "util/atomic.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tds {

class ProducerSession;

/// Per-session knobs for ShardedAggregateEngine::NewProducer().
struct ProducerSessionOptions {
  /// Items a session stages across its per-shard buffers before Add /
  /// AddBatch auto-flushes them to the rings. Larger runs amortize the
  /// per-flush route load and ring handoff; staged items are invisible to
  /// queries (and to engine Flush()) until a session flush — explicit,
  /// automatic, or on destruction.
  size_t staging_capacity = 4096;
  /// Admission deadline per flush episode; defaults to
  /// Options::block_deadline.
  std::optional<std::chrono::nanoseconds> block_deadline;
};

/// Sharded multi-stream aggregation engine: keys hash to route *slices*
/// (a fixed salted-hash partition), slices map to N shards through an
/// epoch-published route table, and each shard owns one AggregateRegistry
/// mutated by exactly one writer thread, fed through a lock-free SPSC ring
/// (multiple front-end producers are serialized by a per-shard mutex
/// around the push side only — writers never take it).
///
/// Ingest surface: producers open a ProducerSession (NewProducer(), see
/// engine/producer_session.h) that stages items into per-shard runs
/// locally and publishes whole pre-grouped runs to the target rings — the
/// hot path takes no shared lock and loads the route table once per flush
/// (one atomic load per batch, not per item). Sessions are the only way
/// in.
///
/// Read path: every read is a request on its shard's writer queue, served
/// between drain chunks against the live registry. QueryKey and QueryTotal
/// evaluate the live aggregates in place (O(log N) buckets per key, no
/// copy); ShardSnapshot and Snapshot ask the writer for a structural copy
/// of its registry (AggregateRegistry::Copy: each key's state cloned, the
/// WBMH layout copied once — no encode, no decode). KeyCount reads the
/// writers' occupancy mirrors and posts nothing. A read issued after
/// Flush() reflects every item ingested before the Flush; a read waits for
/// at most the drain chunk the writer is applying. Snapshot() assembles one
/// engine-wide MergedSnapshot from all shards at a single route-table cut.
///
/// Backpressure: when a shard's ring fills, producers escalate through the
/// staged wait (spin → yield → CondVar park; see StagedWait) and
/// the writer signals on consumption — a blocked producer no longer burns
/// a core. Admission control (a finite block_deadline, per engine or per
/// session) bounds the blocking and rejects the overflow with
/// kUnavailable; rejects and parks are counted per shard in Stats().
/// Restore() (with RestoreFromCheckpointLog, engine/checkpoint_log.h)
/// rebuilds a fresh engine from a checkpointed registry, byte-identical
/// to the checkpointed state.
///
/// Route-epoch protocol: the slice→shard table is an immutable snapshot
/// (RouteTable) published through an atomic shared_ptr with a
/// monotonically increasing generation. Flush episodes bracket themselves
/// with the flush *fence* (EnterFlush/ExitFlush — two atomic RMWs, no
/// lock); a migration raises the fence (blocking new episodes, waiting
/// out in-flight ones), drains the rings, moves the keys on the owner
/// writer threads, publishes the successor table, and lowers the fence.
/// A session whose staged runs predate the current generation
/// re-partitions them against the fresh table before pushing, so a staged
/// item can never land on — and double-count in — a stale shard.
///
/// Locking discipline — machine-checked, not just documented: every
/// guarded field below carries TDS_GUARDED_BY and every lock-holding
/// method TDS_REQUIRES, so `tools/check.sh thread-safety` (clang,
/// -Werror=thread-safety) proves the rules hold on every path. route_mutex_
/// is now control-plane only (migrations exclusive; snapshot gathers and
/// per-key reads shared) — producers never touch it. See util/mutex.h for
/// the annotated lock types and docs/CORRECTNESS.md for how to annotate
/// new guarded state.
///
/// Ordering contract: each shard must observe non-decreasing ticks. A
/// single producer feeding tick-ordered items satisfies this for every
/// shard; concurrent producers must coordinate externally so their
/// interleaving per shard stays tick-ordered (e.g. epoch-sliced ingestion,
/// where all producers use the same tick within a slice, flush their
/// sessions, and barrier between slices). Rebalancing additionally
/// requires *globally* tick-ordered ingest: a migration can raise the
/// receiving registry's clock to the donor's, so items enqueued later must
/// not carry older ticks. Both example disciplines above already satisfy
/// this.
class ShardedAggregateEngine {
 public:
  struct Options {
    AggregateRegistry::Options registry;
    uint32_t shards = 4;
    /// Route-table granularity: keys hash into this many slices, each
    /// routed to one shard (must be >= shards; ideally many times larger
    /// so migrations can move fine-grained key ranges).
    uint32_t route_slices = 256;
    /// Per-shard ingest queue capacity in items (rounded up to a power of
    /// two). What a producer does when a queue is full is
    /// `block_deadline`'s call.
    size_t queue_capacity = 1 << 16;
    /// Default admission deadline for session flushes; a session may
    /// override it through ProducerSessionOptions::block_deadline. A
    /// producer facing a full queue escalates through the staged wait
    /// (StagedWait in engine/wait_strategy.h). The default, infinite
    /// (nanoseconds::max()), waits until the writer makes room; a finite
    /// deadline is admission control: once one flush episode has blocked
    /// that long, the remainder of the batch is rejected with
    /// Status::Unavailable and counted in ShardStats::items_rejected.
    std::chrono::nanoseconds block_deadline = std::chrono::nanoseconds::max();
    /// Skew trigger for RebalanceIfSkewed: rebalance when the busiest
    /// shard holds at least this many times the live keys of the idlest.
    double rebalance_skew = 2.0;
    /// The busiest shard must hold at least this many live keys before a
    /// rebalance is worth its stall (prevents thrashing on tiny tables).
    uint64_t rebalance_min_keys = 1024;
  };

  /// Point-in-time per-shard occupancy counters, maintained by the shard
  /// writers (exact after a Flush(), approximate while ingest is running).
  struct ShardStats {
    uint64_t live_keys = 0;
    uint64_t arena_extent = 0;  ///< slots ever allocated (occupancy + churn)
    uint64_t items_applied = 0;
    uint64_t queue_depth = 0;  ///< enqueued but not yet applied
    /// Overload counters (admission control / backpressure):
    uint64_t items_rejected = 0;  ///< dropped past a deadline (kUnavailable)
    uint64_t park_count = 0;      ///< producer CondVar parks on a full queue
    /// Longest run of consecutive failed push attempts by one producer — a
    /// unitless stall measure (the engine reads no clock); anything large
    /// means producers outran the shard writer for a sustained stretch.
    uint64_t max_queue_stall = 0;
  };

  /// Engine-wide producer-session counters (one session's own view is
  /// ProducerSession::stats()). `items_staged` counts items accepted into
  /// session staging buffers, `items_flushed` items handed to the shard
  /// rings, and `flush_stalls` flush episodes that had to wait (route
  /// fence or full ring).
  struct SessionStats {
    uint64_t sessions_opened = 0;
    uint64_t sessions_closed = 0;
    uint64_t items_staged = 0;
    uint64_t items_flushed = 0;
    uint64_t flush_stalls = 0;
  };

  static StatusOr<std::unique_ptr<ShardedAggregateEngine>> Create(
      DecayPtr decay, const Options& options);

  /// Stops the writer threads and joins them (pending queue items are
  /// drained first). Equivalent to Stop().
  ~ShardedAggregateEngine();

  ShardedAggregateEngine(const ShardedAggregateEngine&) = delete;
  ShardedAggregateEngine& operator=(const ShardedAggregateEngine&) = delete;

  /// Drains every queue, serves every pending read, stops the writer
  /// threads, and joins them. Idempotent. After Stop() the ingest surface
  /// returns kFailedPrecondition (never blocks), while reads run inline on
  /// the caller against the quiescent final state. Items still staged in
  /// live sessions are not drained — flush sessions first.
  void Stop() TDS_EXCLUDES(route_mutex_);

  /// Opens a producer session — the ingest surface. One session per
  /// producer thread: the handle itself is not thread-safe. See
  /// ProducerSession in engine/producer_session.h for the staging/flush
  /// semantics.
  StatusOr<std::unique_ptr<ProducerSession>> NewProducer(
      const ProducerSessionOptions& options = {});

  /// Returns once every item ingested before the call has been applied —
  /// or kFailedPrecondition if the engine stopped with items unapplied
  /// (cannot happen through the public API, which drains before
  /// stopping; defends against a writer dying mid-drain). Covers items
  /// handed to the rings; items still staged in a live session need a
  /// session Flush() first.
  Status Flush();

  /// Fresh immutable copy of one shard's registry: the writer copies the
  /// registry structurally (AggregateRegistry::Copy) between drain chunks.
  /// The copy reflects at least everything applied before this call began
  /// and shares no state with the live shard; null if the copy fails.
  std::shared_ptr<const AggregateRegistry> ShardSnapshot(uint32_t shard);

  /// One engine-wide merged view at a single route-table cut: every shard
  /// writer copies its registry at once while the route lock is held (so
  /// no rebalance can slip between shard captures and double-count a key);
  /// the copies are folded outside the lock (MergedSnapshot::FromShards)
  /// into a MergedSnapshot whose cut tick is the max shard clock captured.
  /// Nothing is encoded or decoded; the first failed copy's status is
  /// returned.
  StatusOr<MergedSnapshot> Snapshot() TDS_EXCLUDES(route_mutex_);

  /// Decayed sum for `key`, read by its owning shard's writer from the live
  /// registry between drain chunks. Evaluated at max(now, shard clock) — a
  /// caller's clock may lag the stream's.
  double QueryKey(uint64_t key, Tick now) TDS_EXCLUDES(route_mutex_);

  /// Sum over all shards, each read by its writer from the live registry
  /// at max(now, its clock), at one route-table cut.
  double QueryTotal(Tick now) TDS_EXCLUDES(route_mutex_);

  /// Total live keys across all shards, from the writers' occupancy
  /// mirrors (exact after a Flush(); posts no request).
  size_t KeyCount() const;

  /// Per-shard occupancy stats (the rebalance trigger's inputs).
  std::vector<ShardStats> Stats() const;

  /// Engine-wide producer-session counters (see SessionStats).
  SessionStats SessionTotals() const;

  /// Checks the live-key skew trigger and, when it fires, migrates route
  /// slices from the busiest shard to the idlest until the imbalance is
  /// halved. Donor slices are chosen *hottest first* — by offered-load
  /// ingest rate since the last selection (per-slice counters the session
  /// flush path maintains), with live keys as the tiebreak — so a small
  /// but hot slice moves before a populous cold one. Returns true when a
  /// migration ran. Producers are stalled for the duration (flush fence +
  /// queue drain).
  StatusOr<bool> RebalanceIfSkewed() TDS_EXCLUDES(route_mutex_);

  /// Explicitly re-routes `slices` to `to_shard`, migrating their live
  /// keys from the current owners (the manual counterpart of
  /// RebalanceIfSkewed, and the test hook for forced migrations).
  Status MigrateSlices(std::span<const uint32_t> slices, uint32_t to_shard)
      TDS_EXCLUDES(route_mutex_);

  /// Rebuilds shard state from a checkpointed registry (see
  /// RestoreFromCheckpointLog): `registry` is re-partitioned along the
  /// current route table and merged onto the shard writers through the
  /// same audited ExtractIf/MergeFrom path migrations use. Requires a
  /// fresh engine (no items applied, no live keys) whose options match the
  /// checkpoint's; queries afterwards are byte-identical to the
  /// checkpointed state.
  Status Restore(AggregateRegistry registry) TDS_EXCLUDES(route_mutex_);

  /// One shard's incremental-checkpoint delta (the unit the checkpoint log
  /// turns into a segment file — see engine/checkpoint_log.h).
  struct ShardCheckpointDelta {
    uint32_t shard = 0;
    AggregateRegistry::CheckpointDelta delta;
  };

  /// Switches every shard registry to checkpoint dirty tracking (see
  /// AggregateRegistry::EnableCheckpointTracking). Idempotent; existing
  /// keys are stamped so the first capture is a complete snapshot. Runs a
  /// command on every shard writer, so the engine must not be stopped.
  Status EnableCheckpointTracking() TDS_EXCLUDES(route_mutex_);
  bool checkpoint_tracking() const {
    return ckpt_tracking_.load(std::memory_order_acquire);
  }

  /// Captures each shard's delta since `since[shard]` (one watermark per
  /// shard, 0 = everything) at a single route-table cut — the shared route
  /// lock spans all shard captures, so a migration can never split a
  /// moving key's donor-eviction and receiver-update across two manifest
  /// generations (the same guarantee Snapshot() gives its gather). Each
  /// capture runs on its shard's writer thread (no torn reads). Requires
  /// EnableCheckpointTracking; callers wanting a drained cut Flush first.
  Status CaptureCheckpointDeltas(std::span<const uint64_t> since,
                                 std::vector<ShardCheckpointDelta>* out)
      TDS_EXCLUDES(route_mutex_);

  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t route_slices() const { return options_.route_slices; }
  const Options& options() const { return options_; }
  const DecayPtr& decay() const { return decay_; }
  uint64_t ItemsApplied() const;

  /// Completed migrations (RebalanceIfSkewed firings + MigrateSlices calls
  /// that moved at least one slice).
  uint64_t Rebalances() const {
    return rebalances_.load(std::memory_order_relaxed);
  }

  /// Route-table generation: bumped by every published migration. A
  /// session compares its staged runs' generation against this to decide
  /// whether to re-partition at flush.
  uint64_t RouteGeneration() const { return CurrentRoute()->generation; }

  /// The route slice a key hashes into (stable across rebalances; salted
  /// independently of the registry's table probe hash).
  static uint32_t SliceForKey(uint64_t key, uint32_t slice_count);

  /// The shard currently routed for `key` (advisory: a rebalance may move
  /// it at any time unless the caller also holds ingest quiescent).
  /// Lock-free — one atomic route-table load.
  uint32_t RouteForKey(uint64_t key) const;

  /// Test hook: runs `fn` against `shard`'s registry on its writer thread
  /// and blocks until done. A blocking `fn` deterministically stalls that
  /// writer — the backpressure tests use this to fill a ring on purpose.
  /// Holds the route lock shared (ingest keeps running, migrations wait).
  void RunOnWriterForTest(uint32_t shard,
                          std::function<void(AggregateRegistry&)> fn)
      TDS_EXCLUDES(route_mutex_);

 private:
  friend class ProducerSession;

  /// Immutable slice→shard snapshot, epoch-published (see the class
  /// comment's route-epoch protocol). Never mutated after publish;
  /// migrations build a successor with generation + 1.
  struct RouteTable {
    uint64_t generation = 0;
    std::vector<uint32_t> shard_of_slice;
  };

  /// Per-push-episode feedback for session stats (engine-side shard
  /// counters are updated regardless).
  struct PushCounters {
    uint64_t rejected = 0;
    bool stalled = false;
  };

  /// One unit of work for a shard writer. Lives on the poster's stack
  /// until `done`; the writer sets `done` under the shard's request_mutex
  /// after `fn` ran and never touches the request again.
  struct WriterRequest {
    std::function<void(AggregateRegistry&)> fn;
    bool done = false;
  };

  struct Shard {
    explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}

    SpscRing<KeyedItem> queue;
    Mutex producer_mutex;  ///< serializes producers; writer never takes it
    Atomic<uint64_t> enqueued{0};
    Atomic<uint64_t> applied{0};

    /// Full-queue producer parking (backpressure). The mutex guards no
    /// fields — the waited-on state is the lock-free ring itself — so
    /// waiter registration is an advisory atomic and parks are bounded
    /// slices (see StagedWait); the writer notifies after consuming when
    /// `space_waiters` is nonzero.
    Mutex space_mutex;
    CondVar space_cv;
    Atomic<uint32_t> space_waiters{0};

    /// Drain watchers (Flush / WaitQueuesDrained) park here; the writer
    /// notifies after advancing `applied` when `drain_waiters` is nonzero.
    Mutex drain_mutex;
    CondVar drain_cv;
    Atomic<uint32_t> drain_waiters{0};

    /// Writer-idle parking: the writer parks in bounded slices when it has
    /// nothing to do; producers, request posters, and Stop() wake it
    /// through WakeWriter().
    Mutex wake_mutex;
    CondVar wake_cv;
    Atomic<bool> writer_parked{false};

    /// Overload counters (ShardStats mirrors).
    Atomic<uint64_t> items_rejected{0};
    Atomic<uint64_t> park_count{0};
    Atomic<uint64_t> max_queue_stall{0};

    /// Set by the writer thread on exit (Flush's defense against waiting
    /// on a writer that no longer exists).
    Atomic<bool> writer_done{false};

    /// Written only by the shard's writer thread (constructed before the
    /// thread starts, which establishes the happens-before edge; a
    /// request mutates it on the writer thread via RunOnWriter; after
    /// `stopped` it is touched only under request_mutex). Thread
    /// *ownership* is a discipline Clang TSA cannot express, so this field
    /// is deliberately unannotated.
    std::optional<AggregateRegistry> registry;

    /// Occupancy stats mirrored by the writer after every applied batch
    /// and every served request (readable without stopping the writer).
    Atomic<uint64_t> live_keys{0};
    Atomic<uint64_t> arena_extent{0};

    /// Request queue: readers, migrations, Restore and checkpoint capture
    /// append a request under request_mutex, raise `requests_pending`
    /// (seq_cst, the Dekker partner of the writer's park re-check) and
    /// wake the writer, which swaps the list out between drain chunks and
    /// runs every request against the live registry. Once the writer has
    /// exited it sets `stopped`, and requests run inline on the poster
    /// under request_mutex.
    Mutex request_mutex;
    CondVar request_cv;  ///< posters wait here for their request's `done`
    std::vector<WriterRequest*> requests TDS_GUARDED_BY(request_mutex);
    bool stopped TDS_GUARDED_BY(request_mutex) = false;
    Atomic<bool> requests_pending{false};

    std::thread writer;
  };

  explicit ShardedAggregateEngine(const Options& options);

  void WriterLoop(Shard& shard);
  void UpdateStats(Shard& shard);

  /// Writer side of the request queue: swaps the pending list into
  /// `batch` (recycled, so steady serving allocates nothing), runs it,
  /// and marks it done.
  void ServeRequests(Shard& shard, std::vector<WriterRequest*>& batch);

  /// Queues `request` on the shard's writer, or runs it inline if the
  /// writer has stopped. Await blocks until it has run.
  void Post(Shard& shard, WriterRequest* request);
  void Await(Shard& shard, const WriterRequest& request);

  /// Runs `fn` against the shard's registry on the shard's writer thread
  /// (inline once the engine has stopped) and waits for completion. Any
  /// number of threads may post at once. A mutation that must not race
  /// ingest or other mutations is the caller's to order: migrations and
  /// Restore hold the route lock exclusively with the flush fence up.
  void RunOnWriter(Shard& shard, std::function<void(AggregateRegistry&)> fn);

  /// RunOnWriter on every shard at once: posts to all writers, then waits
  /// for all, so the shards serve in parallel.
  void RunOnEveryWriter(
      const std::function<void(uint32_t, AggregateRegistry&)>& fn);

  /// Pushes `items` onto one shard's ring, escalating through the staged
  /// wait when full. Returns kUnavailable once `deadline` expires with
  /// items still unqueued (the remainder is dropped and counted). Callers
  /// hold the flush fence (EnterFlush), not the route lock.
  Status PushToShard(Shard& shard, std::span<const KeyedItem> items,
                     const Deadline& deadline,
                     PushCounters* counters = nullptr);

  /// The current epoch-published route snapshot (one plain acquire load —
  /// no refcount traffic, no lock word). The pointee is immutable and
  /// stays alive until the engine is destroyed (see route_history_), so
  /// readers never need to pin it.
  const RouteTable* CurrentRoute() const {
    return route_table_.load(std::memory_order_acquire);
  }

  /// Publishes a successor route table. Only migrations (and Create) do
  /// this, under the exclusive route lock with the fence raised. The
  /// table is retired into route_history_ rather than freed on
  /// replacement: tables are ~1KB and migrations are rare, so retaining
  /// every epoch is the cheapest safe reclamation (and the one TSan can
  /// model — gcc's std::atomic<shared_ptr> hides an unmodeled lock bit).
  void PublishRoute(std::shared_ptr<const RouteTable> next)
      TDS_REQUIRES(route_mutex_) {
    const RouteTable* raw = next.get();
    route_history_.push_back(std::move(next));
    route_table_.store(raw, std::memory_order_release);
  }

  /// Flush fence — the generation fence of the route-epoch protocol.
  /// EnterFlush/ExitFlush bracket every session's ring-push episode: two
  /// seq_cst RMWs on the uncontended fast path.
  /// EnterFlush fails fast with kFailedPrecondition on a stopped engine
  /// and with kUnavailable when the fence stays up past `deadline`
  /// (`*stalled` is set if it had to wait at all).
  Status EnterFlush(const Deadline& deadline, bool* stalled)
      TDS_EXCLUDES(fence_mutex_);
  void ExitFlush() TDS_EXCLUDES(fence_mutex_);

  /// Raises the fence and waits out in-flight flush episodes — the
  /// quiescence migrations need (the role the exclusive route lock played
  /// when producers still took it). Seq_cst Dekker pairing with
  /// EnterFlush: either the migration observes a flusher's active count,
  /// or the flusher observes the raised fence and backs out.
  void RaiseFence() TDS_REQUIRES(route_mutex_) TDS_EXCLUDES(fence_mutex_);
  void LowerFence() TDS_REQUIRES(route_mutex_) TDS_EXCLUDES(fence_mutex_);

  /// Offered-load accounting for the rebalancer's hot-slice selection
  /// (relaxed; sessions publish batched counts at flush).
  void AddSliceIngest(uint32_t slice, uint64_t n) {
    slice_ingest_[slice].fetch_add(n, std::memory_order_relaxed);
  }

  /// Blocks (parked) until `shard.applied` reaches `target`;
  /// kFailedPrecondition if the writer exited first.
  Status WaitShardApplied(Shard& shard, uint64_t target);

  /// Wakes the shard's writer if it is parked idle.
  void WakeWriter(Shard& shard);

  /// Waits (parked) until every queue is drained (the raised fence
  /// guarantees no new items can arrive).
  void WaitQueuesDrained() TDS_REQUIRES(route_mutex_);

  /// Moves the live keys of `moving` (all currently routed to
  /// `from_index`) to `to_index` and publishes a successor route table.
  /// Requires the exclusive route lock, a raised fence, and drained
  /// queues.
  Status MoveSlicesLocked(uint32_t from_index, uint32_t to_index,
                          const std::vector<uint32_t>& moving)
      TDS_REQUIRES(route_mutex_);

  /// RebalanceIfSkewed's body once the lock is held, the fence raised,
  /// and the queues drained (single-exit so the caller can lower the
  /// fence unconditionally).
  StatusOr<bool> RebalanceLocked() TDS_REQUIRES(route_mutex_);

  /// Restore's body under the same bracket as RebalanceLocked.
  Status RestoreLocked(AggregateRegistry full) TDS_REQUIRES(route_mutex_);

  DecayPtr decay_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Control-plane lock: migrations/Stop/Restore hold it exclusive;
  /// snapshot gathers, point reads, checkpoint capture, and the
  /// writer-request test hook hold it shared. Producers never take it.
  mutable SharedMutex route_mutex_;

  /// Current epoch-published route snapshot. Load via CurrentRoute()
  /// (a single acquire load — the whole point is lock-free producer
  /// routing); store only via PublishRoute() under the exclusive route
  /// lock. Every table ever published lives in route_history_ until the
  /// engine dies, so the raw pointer is always valid.
  Atomic<const RouteTable*> route_table_{nullptr};
  std::vector<std::shared_ptr<const RouteTable>> route_history_
      TDS_GUARDED_BY(route_mutex_);

  /// Flush-fence state (see EnterFlush/RaiseFence). fence_mutex_ guards
  /// no fields — the waited-on state is the pair of atomics — so waiter
  /// registration is advisory and parks are bounded slices, exactly the
  /// StagedWait discipline the shard rings use.
  Atomic<uint64_t> active_flushes_{0};
  Atomic<bool> fence_raised_{false};
  mutable Mutex fence_mutex_;
  CondVar fence_cv_;    ///< flushers park here while the fence is up
  CondVar quiesce_cv_;  ///< the fence holder parks here until active == 0
  Atomic<uint32_t> fence_waiters_{0};
  Atomic<uint32_t> quiesce_waiters_{0};

  /// Offered-load per route slice (cumulative), maintained by session
  /// flushes; RebalanceIfSkewed diffs against slice_ingest_seen_ to rank
  /// donor slices by recent heat.
  std::vector<Atomic<uint64_t>> slice_ingest_;
  std::vector<uint64_t> slice_ingest_seen_ TDS_GUARDED_BY(route_mutex_);

  /// SessionTotals() mirrors (relaxed; sessions publish at flush/close).
  Atomic<uint64_t> sessions_opened_{0};
  Atomic<uint64_t> sessions_closed_{0};
  Atomic<uint64_t> session_staged_{0};
  Atomic<uint64_t> session_flushed_{0};
  Atomic<uint64_t> session_flush_stalls_{0};

  Atomic<uint64_t> rebalances_{0};
  /// Set (once) by EnableCheckpointTracking; read by the checkpoint log.
  Atomic<bool> ckpt_tracking_{false};
  Atomic<bool> stop_{false};
};

}  // namespace tds

#endif  // TDS_ENGINE_ENGINE_H_
