#ifndef TDS_ENGINE_REGISTRY_H_
#define TDS_ENGINE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/backends.h"
#include "core/factory.h"
#include "engine/slot_arena.h"
#include "histogram/wbmh_layout.h"
#include "util/common.h"
#include "util/status.h"

namespace tds {

class Encoder;

/// One keyed observation for a multi-stream registry or engine.
struct KeyedItem {
  uint64_t key = 0;
  Tick t = 0;
  uint64_t value = 0;
};

/// A registry of per-key decayed aggregates — the paper's deployment shape
/// (Section 6 telecom application): millions of per-customer summaries, one
/// decay function, one accuracy target, maintained together.
///
/// Storage design — table -> entry -> block, no object per key:
///  * keys live in an open-addressing table (linear probing, tombstoned
///    deletes, power-of-two capacity) mapping to dense 32-bit entry handles;
///  * entries live in a chunked slab typed by the backend (stable
///    addresses, recycled through a free list). An entry holds the key, its
///    last arrival tick and the backend's per-key state inline (checkpoint
///    epochs live beside the slab): a CEH's EhState (bucket-block pointer,
///    clock, first arrival, total), a WBMH's cell vector and applied op
///    sequence, the EWMA and PolyExp registers, or a handle to an Exact or
///    RecentItems heap block. The state's own heap block (bucket block,
///    cell array) is the chain's last link;
///  * the constants every key shares (decay, window, class budget, epsilon,
///    count precision) live once, in the slab's params, and are passed to
///    each state per call;
///  * for WBMH backends, all keys share ONE WbmhLayout — the paper's
///    boundary-sharing argument (Section 5; Section 1.1's per-customer
///    usage profiles are this shape). The registry is the layout's only
///    owner: it owns the op-log trim policy (a state may only outrun the
///    log if every state has synced, so trims happen after sync-all
///    passes), encodes the layout once per snapshot, and charges its
///    storage once.
///
/// Idle-key expiry: a key whose newest item has decayed to (essentially)
/// nothing is evicted. The threshold age comes from the decay function
/// itself: Horizon() when finite (evicted state is exactly zero), otherwise
/// the smallest age whose weight falls below `expiry_weight_floor * g(1)`
/// (approximate; disable with a non-positive floor). Expiry runs lazily —
/// a bounded sweep piggybacks on every update, and each full pass over the
/// arena completes one epoch; Advance() runs a full pass eagerly.
///
/// Threading contract (same as DecayedAggregate): Update / UpdateBatch /
/// Advance / EncodeState / Copy require exclusive access and non-decreasing
/// ticks; Query / QueryTotal are const and side-effect free, so any number
/// of readers may run concurrently on a quiescent registry.
class AggregateRegistry {
 public:
  struct Options {
    /// Backend / epsilon / start for every per-key aggregate. kAuto is
    /// resolved once at Create.
    AggregateOptions aggregate;
    /// Idle-key expiry floor for infinite-horizon decays (see class
    /// comment); 0 disables expiry there, while finite horizons still
    /// expire at the horizon age. A negative floor disables expiry
    /// entirely — the differential-testing hook (an evicted-then-recreated
    /// key rebuilds its histogram from scratch, which is within the
    /// accuracy bound but not bit-identical to an uninterrupted one).
    double expiry_weight_floor = 1e-9;
  };

  static StatusOr<AggregateRegistry> Create(DecayPtr decay,
                                            const Options& options);

  AggregateRegistry(AggregateRegistry&&) = default;
  AggregateRegistry& operator=(AggregateRegistry&&) = default;

  /// Adds `value` at tick t (>= now()) to `key`, creating it on first use.
  void Update(uint64_t key, Tick t, uint64_t value);

  /// Batch ingest: items must have non-decreasing ticks (starting >= now()).
  /// Internally regrouped tick-major (keeping the shared WBMH clock
  /// monotone), then hash-grouped by key within each tick segment in O(n) —
  /// per-key item order is preserved, and reordering across keys is
  /// invisible because keys are independent structures — so the resulting
  /// per-key state is bit-identical to feeding the same sequence through
  /// Update, while table probes, layout advances, op replays, and histogram
  /// cascades amortize over each (tick, key) run.
  void UpdateBatch(std::span<const KeyedItem> items);

  /// Advances every key's aggregate to `now` and runs a full expiry pass.
  void Advance(Tick now);

  /// Decayed sum of `key` at `now` (>= now()); 0 for absent keys.
  double Query(uint64_t key, Tick now) const;

  /// Sum of all keys' decayed sums at `now` (>= now()).
  double QueryTotal(Tick now) const;

  bool Contains(uint64_t key) const;

  /// One live key's state as a reader sees it: valid until the registry's
  /// next mutation.
  class KeyView {
   public:
    /// The key's decayed sum at `now` (>= the registry clock).
    double Query(Tick now) const;
    /// The key's paper storage metric (a WBMH key's share excludes the
    /// shared layout).
    size_t StorageBits() const;
    /// The key's snapshot payload: a WBMH key's bare state (its counts on
    /// the shared layout, which must be synced), every other backend's
    /// structure state without the EncodeDecayedSum envelope.
    Status EncodeState(Encoder& encoder) const;

   private:
    friend class AggregateRegistry;
    KeyView(const AggregateRegistry& registry, uint32_t index)
        : registry_(&registry), index_(index) {}

    const AggregateRegistry* registry_;
    uint32_t index_;
  };

  /// Calls f(key, last_tick, const KeyView&) for every live key, in arena
  /// order (not key order). Const iteration only — mutating the registry
  /// from inside f is undefined.
  template <typename F>
  void ForEachKey(F&& f) const {
    std::visit(
        [&](const auto& slab) {
          for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
            if (!slab.entries.live(i)) continue;
            const auto& entry = slab.entries.at(i);
            f(entry.key, entry.last_tick, KeyView(*this, i));
          }
        },
        slab_);
  }

  /// Absorbs every key of `other` (which must use the same decay, backend,
  /// epsilon, and start, and share no keys with this registry). The merged
  /// clock is the max of the two clocks. Existing per-key aggregates are
  /// *not* advanced — a key's state stays the pure function of its own
  /// update sequence, so the merged registry is bit-identical to one that
  /// ingested both substreams serially (the cross-shard snapshot-merge
  /// guarantee). For WBMH, both shared layouts are aligned to the later
  /// layout clock (a stream-independent advance), every counter is synced,
  /// the two layouts' spans are compared once, and the incoming states
  /// move over onto this registry's layout.
  /// `other` is consumed; on error this registry is unchanged.
  Status MergeFrom(AggregateRegistry&& other);

  /// Moves every live key with pred(key) == true into a new registry with
  /// the same options and clock (the shard-migration donor path). The
  /// extracted states are not advanced, preserving bit-identity; for
  /// WBMH the new registry's layout is advanced to this layout's clock
  /// (deterministically identical structure, checked once) and the synced
  /// states move over onto it.
  StatusOr<AggregateRegistry> ExtractIf(
      const std::function<bool(uint64_t)>& pred);

  /// An independent deep copy: the same options, clock, keys, last-arrival
  /// ticks and per-key state (each state's copy constructor), so it answers
  /// and encodes exactly like this registry, and later updates to either
  /// one leave the other as it was. For WBMH every state is synced and the
  /// log trimmed first (as EncodeState does), then the layout is copied
  /// once for the copied states to count on. The copy does not track
  /// checkpoints, like a decoded registry. Same exclusive-access contract
  /// as EncodeState; on error this registry is unchanged.
  StatusOr<AggregateRegistry> Copy();

  size_t KeyCount() const { return live_; }
  Tick now() const { return now_; }
  Backend backend() const { return backend_; }
  const DecayPtr& decay() const { return decay_; }

  /// Expiry threshold age (kInfiniteHorizon when expiry is disabled).
  Tick expiry_age() const { return expiry_age_; }

  /// Completed full passes of the lazy expiry sweep.
  uint64_t sweep_epoch() const { return epoch_; }

  /// Paper storage metric over all keys; a shared WBMH layout's boundary
  /// storage is charged once (WbmhLayout::StorageBits).
  size_t StorageBits() const;

  /// Entry-slab footprint: entries ever allocated (extent) and entries
  /// live right now. extent - occupied is recyclable churn — the engine's
  /// rebalance stats report both.
  size_t ArenaExtent() const;
  size_t ArenaOccupied() const;

  /// Structural invariant audit (see util/audit.h): table/slab/count
  /// consistency, probe-chain reachability of every entry, clock bounds,
  /// the shared constants once (the WBMH layout, the PolyExp Pascal rows)
  /// and every key's state audit, whatever the backend. Non-const only
  /// because the layout audit may extend its memoized region table.
  Status AuditInvariants();

  /// Snapshot codec (self-inverse: decode then re-encode is
  /// byte-identical). Non-const: WBMH states sync and the layout log is
  /// trimmed first. Thin wrapper over EncodeStateImpl, which runs the
  /// audit hook after the sync.
  Status EncodeState(std::string* out);  // tds-analyze: allow(audit-hook)
  static StatusOr<AggregateRegistry> Decode(DecayPtr decay,
                                            const Options& options,
                                            std::string_view data);

  /// --- Incremental-checkpoint dirty tracking (engine/checkpoint_log.h) ---
  ///
  /// When enabled, every entry mutation stamps the entry with the current
  /// checkpoint epoch and every eviction is appended to a dead-key log, so
  /// CaptureCheckpointDelta can encode exactly the keys that changed since
  /// a given epoch. Off by default: the stamp is one store per mutated
  /// entry, but the dead-key log grows with evictions between captures, so
  /// tracking only runs when someone is actually draining it.
  ///
  /// Epoch discipline: the current epoch is stamped on mutations; a capture
  /// returns the epoch it covered *and then* opens the next one. The caller
  /// advances its own "last committed" watermark only after the capture has
  /// durably landed — re-capturing with the old watermark after a failed
  /// write yields a superset of the lost delta, so nothing is dropped.
  void EnableCheckpointTracking();
  bool checkpoint_tracking() const { return ckpt_tracking_; }

  /// One shard's dirty-set since `since` (a previously returned epoch, or
  /// 0 for everything — the first capture is a full snapshot).
  struct CheckpointDelta {
    /// Epoch this delta covers, i.e. the `since` for the *next* capture
    /// once this one is durably committed.
    uint64_t epoch = 0;
    /// Registry sub-blob ("TDSREG1", AggregateRegistry::Decode-compatible)
    /// restricted to entries dirtied after `since`. Always carries the
    /// registry clock (and the shared WBMH layout), even when no entry
    /// qualifies — appliers need the clock to stay in lockstep.
    std::string blob;
    /// Keys evicted after `since` and not currently live, sorted + unique.
    std::vector<uint64_t> dead_keys;
    /// Number of per-key entries encoded into `blob`.
    size_t dirty_count = 0;
  };

  /// Captures the delta since `since`, prunes dead-key-log entries that
  /// `since` proves committed, and opens the next epoch. Requires
  /// EnableCheckpointTracking; same exclusive-access contract as
  /// EncodeState (the engine runs it on the shard writer thread).
  Status CaptureCheckpointDelta(uint64_t since, CheckpointDelta* out);

 private:
  /// One key's entry: the key (the probe chain's confirmation), the
  /// backend state inline and the last arrival tick. Entries pack at their
  /// own size into 64-byte-aligned chunks. A CEH entry is 64 bytes (key 8,
  /// EhState 48, last_tick 8), exactly one line, so the line the resolve
  /// pass brings in holds everything the apply pass reads and writes, the
  /// bucket block's pointer included. Checkpoint epochs live beside the
  /// slab (dirty_epochs_) because inline they would make it 72 bytes: slot
  /// i would start 8 * (i % 8) bytes into a line, so every entry would
  /// straddle two, with the state reaching the second in 6 of 8 slots, the
  /// block pointer in 1 of 8 and last_tick in 7 of 8. A freed entry is a
  /// default-constructed one, holding no heap block.
  template <typename State>
  struct Entry {
    uint64_t key = 0;
    State state;
    Tick last_tick = 0;
  };
  static_assert(sizeof(Entry<CehState>) == 64, "a CEH entry is one line");
  template <typename State>
  using Entries = SlotArena<Entry<State>>;
  /// A backend's constants and its entries.
  template <typename State>
  struct Slab {
    using StateType = State;
    typename State::Params params;
    Entries<State> entries;
  };
  /// The one slab of this registry's backend.
  using Slabs = Backends::Map<Slab>;

  static constexpr uint32_t kEmptyEntry = 0xffffffffu;
  static constexpr uint32_t kTombEntry = 0xfffffffeu;
  static constexpr uint32_t kNone = 0xffffffffu;

  AggregateRegistry(DecayPtr decay, const Options& options, Backend backend,
                    AggregateOptions resolved);

  Tick DeriveExpiryAge() const;

  /// Applies one same-tick segment of a batch, hash-grouped by key (one
  /// hash per item), in two passes over the runs: resolve finds or creates
  /// every run's entry, prefetching table lines and entries ahead; apply
  /// updates each run's state, prefetching state blocks ahead. Returns the
  /// number of (tick, key) runs applied (the sweep budget unit).
  template <typename State>
  size_t IngestTickSegment(Slab<State>& slab, Tick t,
                           std::span<const KeyedItem> segment);

  /// The entry holding `key`, or kNone.
  uint32_t Find(uint64_t key) const;
  template <typename State>
  uint32_t FindIn(const Entries<State>& entries, uint64_t key) const;
  /// The entry holding `key`, whose SplitMix64 is `hash`; if it is not
  /// live, a new entry with the given last-arrival tick whose state init()
  /// sets. The one probe loop, instantiated (and inlined) once per caller
  /// below.
  template <typename State, typename Init>
  uint32_t FindOrInsert(Slab<State>& slab, uint64_t key, uint64_t hash,
                        Tick last_tick, Init&& init);
  /// The ingest path's lookup: creates a fresh state for a new key.
  template <typename State>
  uint32_t GetOrCreate(Slab<State>& slab, uint64_t key, uint64_t hash);
  /// Inserts a key that is not live, with the state the caller already
  /// holds for it (merge, extraction, decode and copy).
  template <typename State>
  void Insert(Slab<State>& slab, uint64_t key, Tick last_tick, State state);
  /// Sizes the key table for `keys` live keys, so a bulk insert up to that
  /// many never rehashes.
  void ReserveTable(size_t keys);

  /// Shared body of EncodeState (partial == false: every live key) and
  /// CaptureCheckpointDelta (partial == true: keys whose DirtyEpoch is >
  /// `since` only). `entry_count` reports how many keys were encoded.
  Status EncodeStateImpl(std::string* out, bool partial, uint64_t since,
                         size_t* entry_count);

  template <typename State>
  void RehashIfNeeded(const Entries<State>& entries);
  template <typename State>
  void Rehash(const Entries<State>& entries, size_t new_capacity);
  template <typename State>
  void Evict(Entries<State>& entries, uint32_t index);
  template <typename State>
  void SweepStep(Entries<State>& entries, size_t budget);
  void MaybeTrimSharedLog();
  /// Stamps entry `index` with the open checkpoint epoch (tracking only).
  void MarkDirty(uint32_t index) {
    if (!ckpt_tracking_) return;
    if (index >= dirty_epochs_.size()) dirty_epochs_.resize(size_t{index} + 1);
    dirty_epochs_[index] = ckpt_epoch_;
  }
  /// The checkpoint epoch of live entry `index`'s last mutation (0 = never
  /// stamped).
  uint64_t DirtyEpoch(uint32_t index) const {
    return index < dirty_epochs_.size() ? dirty_epochs_[index] : 0;
  }
  /// Brings every WBMH state to the layout's op sequence (WBMH only).
  void SyncAllStates();

  DecayPtr decay_;
  Options options_;
  Backend backend_ = Backend::kAuto;
  AggregateOptions resolved_;  ///< aggregate options with backend_ baked in
  /// Non-null iff backend_ == kWbmh; a WBMH slab's params point at it.
  std::unique_ptr<WbmhLayout> layout_;
  Slabs slab_;

  std::vector<uint32_t> table_;  ///< entry handles; kEmptyEntry / kTombEntry
  size_t table_mask_ = 0;
  size_t live_ = 0;
  size_t tombstones_ = 0;

  Tick now_ = 0;
  Tick expiry_age_ = kInfiniteHorizon;
  uint32_t sweep_cursor_ = 0;
  uint64_t epoch_ = 0;

  /// Incremental-checkpoint state (see EnableCheckpointTracking): the open
  /// epoch, the tracking gate, each entry's last mutation epoch by entry
  /// index (grown on demand, read for live entries only), and the (key,
  /// eviction epoch) log drained and pruned by CaptureCheckpointDelta.
  uint64_t ckpt_epoch_ = 1;
  bool ckpt_tracking_ = false;
  std::vector<uint64_t> dirty_epochs_;
  std::vector<std::pair<uint64_t, uint64_t>> dead_keys_;

  /// Batch regrouping scratch (IngestTickSegment): an open-addressing map
  /// from key to run id, index chains threading each key's items in
  /// encounter order, the run directory itself (each run's key, its hash
  /// and its first and last item), and each run's entry handle, which the
  /// resolve pass fills and the apply pass reads.
  struct Run {
    uint64_t key = 0;
    uint64_t hash = 0;  ///< SplitMix64(key), the key table's probe start
    uint32_t head = 0;
    uint32_t tail = 0;
  };
  std::vector<uint32_t> group_table_;
  std::vector<uint32_t> chain_;
  std::vector<Run> runs_;
  std::vector<uint32_t> handles_;
  std::vector<StreamItem> run_scratch_;  ///< per-(tick, key) run buffer
};

}  // namespace tds

#endif  // TDS_ENGINE_REGISTRY_H_
