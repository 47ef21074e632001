#include "engine/registry.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "core/snapshot.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr char kRegistryMagic[] = "TDSREG1";
constexpr size_t kInitialTableCapacity = 64;
/// Shared-layout op-log high-water mark: past this many retained ops, the
/// registry syncs every state and trims the whole log (amortized O(1)
/// per op: each op is replayed at most once per state either way).
constexpr uint64_t kMaxRetainedOps = 16384;
/// Entries the lazy expiry sweep examines per applied (tick, key) run: a
/// single Update is one run, so the per-item path sweeps this many entries
/// per item, while a coalesced batch sweeps per distinct run.
constexpr size_t kSweepPerRun = 2;
/// Prefetch distances of the batch ingest's two passes, in runs (see
/// IngestTickSegment): the resolve pass requests a run's table line this
/// far ahead and its entry half as far; the apply pass requests a state
/// block kApplyAhead runs ahead.
constexpr size_t kResolveAhead = 16;
constexpr size_t kApplyAhead = 8;

template <typename State>
constexpr bool kIsWbmh = std::is_same_v<State, WbmhState>;

/// EncodeState is infallible for every backend but WBMH.
template <typename State>
Status EncodePayload(const State& state, const typename State::Params& params,
                     Encoder& encoder) {
  if constexpr (std::is_void_v<decltype(state.EncodeState(params, encoder))>) {
    state.EncodeState(params, encoder);
    return Status::OK();
  } else {
    return state.EncodeState(params, encoder);
  }
}

}  // namespace

AggregateRegistry::AggregateRegistry(DecayPtr decay, const Options& options,
                                     Backend backend,
                                     AggregateOptions resolved)
    : decay_(std::move(decay)),
      options_(options),
      backend_(backend),
      resolved_(resolved),
      table_(kInitialTableCapacity, kEmptyEntry),
      table_mask_(kInitialTableCapacity - 1),
      now_(resolved.start() - 1) {}

StatusOr<AggregateRegistry> AggregateRegistry::Create(DecayPtr decay,
                                                      const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  const Backend backend =
      ResolveBackend(*decay, options.aggregate.backend());
  auto resolved = AggregateOptions::Builder()
                      .backend(backend)
                      .epsilon(options.aggregate.epsilon())
                      .start(options.aggregate.start())
                      .Build();
  if (!resolved.ok()) return resolved.status();
  AggregateRegistry registry(decay, options, backend, resolved.value());
  // Each backend's constants, as MakeDecayedSum builds them for one key, are
  // built (and option/decay incompatibilities surface) here, so the per-key
  // create inside the ingest hot path cannot fail. A WBMH key counts on the
  // registry's one layout and rounds at the bucketing precision.
  const Status slab = VisitBackend(backend, [&](auto id) -> Status {
    using State = typename decltype(id)::type;
    auto params = [&]() -> StatusOr<typename State::Params> {
      if constexpr (kIsWbmh<State>) {
        auto layout = WbmhDecayedSum::MakeLayout(
            decay, WbmhDecayedSum::OptionsFor(*resolved));
        if (!layout.ok()) return layout.status();
        registry.layout_ =
            std::make_unique<WbmhLayout>(std::move(layout).value());
        // A fresh layout already sits at the stream start tick; align the
        // registry clock so an empty registry's snapshot is self-consistent
        // (decode rejects blobs whose layout clock is ahead of the registry).
        registry.now_ = registry.layout_->now();
        return WbmhParams(registry.layout_.get(), resolved->epsilon());
      } else {
        return State::MakeParams(decay, State::OptionsFor(*resolved));
      }
    }();
    if (!params.ok()) return params.status();
    registry.slab_.template emplace<Slab<State>>(std::move(params).value(),
                                                 Entries<State>());
    return Status::OK();
  });
  if (!slab.ok()) return slab;
  registry.expiry_age_ = registry.DeriveExpiryAge();
  return registry;
}

Tick AggregateRegistry::DeriveExpiryAge() const {
  const double floor = options_.expiry_weight_floor;
  if (floor < 0.0) return kInfiniteHorizon;  // expiry disabled entirely
  const Tick horizon = decay_->Horizon();
  if (horizon != kInfiniteHorizon) return horizon;
  if (floor == 0.0) return kInfiniteHorizon;
  const double w1 = decay_->Weight(1);
  if (!(w1 > 0.0)) return 1;
  const double target = floor * w1;
  if (decay_->Weight(1) <= target) return 1;
  // Doubling search then bisection for the smallest age whose weight has
  // fallen to the floor. Decays that never get there (e.g. a constant tail)
  // cap out and disable expiry.
  const Tick cap = Tick{1} << 42;
  Tick hi = 2;
  while (hi < cap && decay_->Weight(hi) > target) hi <<= 1;
  if (decay_->Weight(hi) > target) return kInfiniteHorizon;
  Tick lo = hi >> 1;
  while (lo + 1 < hi) {
    const Tick mid = lo + (hi - lo) / 2;
    if (decay_->Weight(mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}


uint32_t AggregateRegistry::Find(uint64_t key) const {
  return std::visit(
      [&](const auto& slab) { return FindIn(slab.entries, key); }, slab_);
}

template <typename State>
uint32_t AggregateRegistry::FindIn(const Entries<State>& entries,
                                   uint64_t key) const {
  size_t pos = SplitMix64(key) & table_mask_;
  while (true) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) return kNone;
    if (entry != kTombEntry && entries.at(entry).key == key) return entry;
    pos = (pos + 1) & table_mask_;
  }
}

template <typename State, typename Init>
uint32_t AggregateRegistry::FindOrInsert(Slab<State>& slab, uint64_t key,
                                         uint64_t hash, Tick last_tick,
                                         Init&& init) {
  Entries<State>& entries = slab.entries;
  RehashIfNeeded(entries);
  size_t pos = hash & table_mask_;
  size_t insert_pos = table_.size();  // first tombstone on the probe path
  while (true) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) break;
    if (entry == kTombEntry) {
      if (insert_pos == table_.size()) insert_pos = pos;
    } else if (entries.at(entry).key == key) {
      return entry;
    }
    pos = (pos + 1) & table_mask_;
  }
  if (insert_pos == table_.size()) {
    insert_pos = pos;
  } else {
    --tombstones_;
  }
  const uint32_t index = entries.Allocate();
  Entry<State>& entry = entries.at(index);
  entry.key = key;
  entry.last_tick = last_tick;
  MarkDirty(index);
  init(entry.state);
  table_[insert_pos] = index;
  ++live_;
  return index;
}

template <typename State>
uint32_t AggregateRegistry::GetOrCreate(Slab<State>& slab, uint64_t key,
                                        uint64_t hash) {
  return FindOrInsert(slab, key, hash, now_, [&slab](State& state) {
    // A freed or fresh entry already holds an empty state.
    state = NewState<State>(slab.params);
  });
}

template <typename State>
void AggregateRegistry::Insert(Slab<State>& slab, uint64_t key,
                               Tick last_tick, State state) {
  bool inserted = false;
  FindOrInsert(slab, key, SplitMix64(key), last_tick, [&](State& slot) {
    inserted = true;
    slot = std::move(state);
  });
  TDS_CHECK_MSG(inserted, "entry insert of a key that is already live");
}

void AggregateRegistry::ReserveTable(size_t keys) {
  size_t capacity = table_.size();
  while ((keys + 1) * 10 >= capacity * 7) capacity *= 2;
  if (capacity == table_.size()) return;
  std::visit([&](const auto& slab) { Rehash(slab.entries, capacity); },
             slab_);
}

template <typename State>
void AggregateRegistry::RehashIfNeeded(const Entries<State>& entries) {
  if ((live_ + tombstones_ + 1) * 10 < table_.size() * 7) return;
  // Double only when live keys drive the load; a tombstone-heavy table is
  // rebuilt at the same size to reclaim the probe chains.
  size_t capacity = table_.size();
  if ((live_ + 1) * 10 >= capacity * 7) capacity *= 2;
  Rehash(entries, capacity);
}

template <typename State>
void AggregateRegistry::Rehash(const Entries<State>& entries,
                               size_t new_capacity) {
  std::vector<uint32_t> old = std::move(table_);
  table_.assign(new_capacity, kEmptyEntry);
  table_mask_ = new_capacity - 1;
  tombstones_ = 0;
  for (const uint32_t entry : old) {
    if (entry == kEmptyEntry || entry == kTombEntry) continue;
    size_t pos = SplitMix64(entries.at(entry).key) & table_mask_;
    while (table_[pos] != kEmptyEntry) pos = (pos + 1) & table_mask_;
    table_[pos] = entry;
  }
}

template <typename State>
void AggregateRegistry::Evict(Entries<State>& entries, uint32_t index) {
  const uint64_t key = entries.at(index).key;
  // The eviction must reach the next checkpoint delta so appliers drop the
  // key too; SlotArena::Free resets the entry, key included, so the record
  // has to be taken before the entry dies. The index's dirty epoch stays
  // behind unread: a live entry is stamped when it is created.
  if (ckpt_tracking_) dead_keys_.push_back({key, ckpt_epoch_});
  size_t pos = SplitMix64(key) & table_mask_;
  while (table_[pos] != index) {
    TDS_CHECK(table_[pos] != kEmptyEntry);
    pos = (pos + 1) & table_mask_;
  }
  table_[pos] = kTombEntry;
  ++tombstones_;
  entries.Free(index);
  --live_;
}

template <typename State>
void AggregateRegistry::SweepStep(Entries<State>& entries, size_t budget) {
  if (expiry_age_ == kInfiniteHorizon || entries.extent() == 0) return;
  budget = std::min<size_t>(budget, entries.extent());
  for (size_t i = 0; i < budget; ++i) {
    if (sweep_cursor_ >= entries.extent()) {
      sweep_cursor_ = 0;
      ++epoch_;
    }
    const uint32_t index = sweep_cursor_++;
    if (entries.live(index) &&
        AgeAt(entries.at(index).last_tick, now_) > expiry_age_) {
      Evict(entries, index);
    }
  }
}

void AggregateRegistry::SyncAllStates() {
  auto& slab = std::get<Slab<WbmhState>>(slab_);
  for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
    if (slab.entries.live(i)) slab.entries.at(i).state.Sync(slab.params);
  }
}

void AggregateRegistry::MaybeTrimSharedLog() {
  if (layout_ == nullptr) return;
  if (layout_->OpSeq() - layout_->LogStart() <= kMaxRetainedOps) return;
  // A state may only be outrun by a trim after it has synced, so the
  // policy is sync-all-then-trim (WbmhState::Sync CHECKs this).
  SyncAllStates();
  layout_->TrimLog(layout_->OpSeq());
}

void AggregateRegistry::Update(uint64_t key, Tick t, uint64_t value) {
  const KeyedItem item{key, t, value};
  UpdateBatch(std::span<const KeyedItem>(&item, 1));
}

void AggregateRegistry::UpdateBatch(std::span<const KeyedItem> items) {
  if (items.empty()) return;
  TDS_CHECK_GE(items.front().t, now_);
  for (size_t i = 1; i < items.size(); ++i) {
    TDS_CHECK_GE(items[i].t, items[i - 1].t);
  }
  // One backend dispatch per batch; the segment loop below is typed.
  std::visit(
      [&](auto& slab) {
        // Tick-major processing keeps the shared WBMH layout's clock
        // monotone and replays its structural ops in the same order as
        // per-item ingestion (merge re-rounding is order-sensitive). The
        // input is already tick-sorted, so the tick segments are
        // contiguous as-is.
        size_t begin = 0;
        size_t total_runs = 0;
        while (begin < items.size()) {
          const Tick t = items[begin].t;
          size_t end = begin;
          while (end < items.size() && items[end].t == t) ++end;
          now_ = t;
          total_runs +=
              IngestTickSegment(slab, t, items.subspan(begin, end - begin));
          begin = end;
        }
        SweepStep(slab.entries, kSweepPerRun * total_runs);
      },
      slab_);
  MaybeTrimSharedLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

template <typename State>
size_t AggregateRegistry::IngestTickSegment(
    Slab<State>& slab, Tick t, std::span<const KeyedItem> segment) {
  // Group the segment's items by key in O(n): an open-addressing scratch
  // map assigns each key a run, and per-item index chains keep that key's
  // items in encounter order. Runs then apply in first-encounter order —
  // per-key order is what per-item Update would have produced, and the
  // reordering across keys is invisible because keys are independent and
  // the shared layout state is a pure function of the (already advanced)
  // tick. One table probe and one histogram cascade per run instead of
  // per item. Each key is hashed once, here; the run keeps the hash for
  // the key table.
  const size_t n = segment.size();
  constexpr uint32_t kNoRun = 0xffffffffu;
  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  group_table_.assign(cap, kNoRun);
  chain_.assign(n, kNoRun);
  runs_.clear();
  const size_t cap_mask = cap - 1;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t key = segment[i].key;
    const uint64_t hash = SplitMix64(key);
    size_t probe = hash & cap_mask;
    while (true) {
      const uint32_t r = group_table_[probe];
      if (r == kNoRun) {
        group_table_[probe] = static_cast<uint32_t>(runs_.size());
        runs_.push_back(Run{key, hash, i, i});
        break;
      }
      if (runs_[r].key == key) {
        chain_[runs_[r].tail] = i;
        runs_[r].tail = i;
        break;
      }
      probe = (probe + 1) & cap_mask;
    }
  }
  // A cold key costs three dependent misses: its table line, the entry that
  // names (key and state inline), and the state's heap block (bucket block,
  // cell array). Two passes over the run directory hide them as groups.
  //
  // Resolve: while run r finds or creates its entry, run r + kResolveAhead's
  // table line and the entry run r + kResolveAhead / 2's first probe names
  // are requested. Entry handles are slab indices, not table positions, so
  // a rehash inside GetOrCreate invalidates none of them, and a prefetch
  // guess it makes stale is a hint, never a load. A WBMH layout advances to
  // t first, so a key created here starts at the op sequence its
  // UpdateBatch would sync it to anyway.
  //
  // Apply: while run r updates its state, run r + kApplyAhead's state block
  // is requested through the entry resolve brought in. Nothing probes the
  // table again. No handle goes stale between the passes: nothing evicts
  // inside a segment (UpdateBatch sweeps only after its last segment).
  if constexpr (kIsWbmh<State>) slab.params.layout->AdvanceTo(t);
  Entries<State>& entries = slab.entries;
  const size_t num_runs = runs_.size();
  handles_.resize(num_runs);
  auto prefetch_resolve = [&](size_t lead) {
    if (lead < num_runs) TDS_PREFETCH(&table_[runs_[lead].hash & table_mask_]);
    const size_t probed = lead - kResolveAhead / 2;
    if (lead >= kResolveAhead / 2 && probed < num_runs) {
      entries.Prefetch(table_[runs_[probed].hash & table_mask_]);
    }
  };
  for (size_t lead = 0; lead < kResolveAhead; ++lead) prefetch_resolve(lead);
  for (size_t r = 0; r < num_runs; ++r) {
    prefetch_resolve(r + kResolveAhead);
    handles_[r] = GetOrCreate(slab, runs_[r].key, runs_[r].hash);
  }
  auto prefetch_apply = [&](size_t lead) {
    if constexpr (requires(const State& state) { state.Prefetch(); }) {
      if (lead < num_runs) entries.at(handles_[lead]).state.Prefetch();
    }
  };
  for (size_t lead = 0; lead < kApplyAhead; ++lead) prefetch_apply(lead);
  for (size_t r = 0; r < num_runs; ++r) {
    prefetch_apply(r + kApplyAhead);
    const Run& run = runs_[r];
    run_scratch_.clear();
    for (uint32_t i = run.head;; i = chain_[i]) {
      run_scratch_.push_back(StreamItem{t, segment[i].value});
      if (i == run.tail) break;
    }
    Entry<State>& entry = entries.at(handles_[r]);
    entry.state.UpdateBatch(slab.params, run_scratch_);
    entry.last_tick = t;
    MarkDirty(handles_[r]);
  }
  return num_runs;
}

Status AggregateRegistry::MergeFrom(AggregateRegistry&& other) {
  // Entry-only injection: past this point the per-entry loop moves state,
  // so a mid-loop abort could not honor "on error this registry is
  // unchanged".
  TDS_FAILPOINT_RETURN("registry.merge");
  if (decay_->Name() != other.decay_->Name() || backend_ != other.backend_ ||
      resolved_.epsilon() != other.resolved_.epsilon() ||
      resolved_.start() != other.resolved_.start()) {
    return Status::InvalidArgument("MergeFrom: registry options mismatch");
  }
  const Status status = std::visit(
      [&](auto& slab) -> Status {
        using SlabT = std::decay_t<decltype(slab)>;
        auto& src = std::get<SlabT>(other.slab_).entries;
        // Disjointness pre-check before any mutation, so a failed merge
        // leaves both registries intact.
        for (uint32_t i = 0; i < src.extent(); ++i) {
          if (src.live(i) && FindIn(slab.entries, src.at(i).key) != kNone) {
            return Status::InvalidArgument("MergeFrom: registries share a key");
          }
        }
        if (layout_ != nullptr) {
          // Layout state at a given clock is stream-independent (the
          // paper's boundary-sharing argument), so advancing the lagging
          // layout to the leading layout's clock makes the two structurally
          // identical — same bucket spans, same bucket ids, same op
          // sequence — and synced states can move across as they are.
          // Advancing a layout is exactly what ingesting at the later tick
          // would have done, so the merged state stays bit-identical to a
          // serially-fed registry.
          const Tick layout_cut =
              std::max(layout_->now(), other.layout_->now());
          layout_->AdvanceTo(layout_cut);
          other.layout_->AdvanceTo(layout_cut);
          SyncAllStates();
          other.SyncAllStates();
          layout_->TrimLog(layout_->OpSeq());
          other.layout_->TrimLog(other.layout_->OpSeq());
          if (layout_->OpSeq() != other.layout_->OpSeq() ||
              !std::ranges::equal(layout_->Spans(), other.layout_->Spans())) {
            return Status::FailedPrecondition(
                "MergeFrom: shared layouts diverged at one clock");
          }
        }
        // Per-key states move over un-advanced: a key's state remains the
        // pure function of its own update sequence (advancing here would
        // insert an extra decay-and-reround step that a serially-fed
        // registry never performs).
        now_ = std::max(now_, other.now_);
        ReserveTable(live_ + other.live_);
        for (uint32_t i = 0; i < src.extent(); ++i) {
          if (!src.live(i)) continue;
          auto& moved = src.at(i);
          Insert(slab, moved.key, moved.last_tick, std::move(moved.state));
        }
        return Status::OK();
      },
      slab_);
  if (!status.ok()) return status;
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

StatusOr<AggregateRegistry> AggregateRegistry::ExtractIf(
    const std::function<bool(uint64_t)>& pred) {
  // Entry-only injection, mirroring MergeFrom: a failure here leaves the
  // source registry untouched (the migration donor stays intact).
  TDS_FAILPOINT_RETURN("registry.extract");
  auto created = Create(decay_, options_);
  if (!created.ok()) return created.status();
  AggregateRegistry out = std::move(created).value();
  if (layout_ != nullptr) {
    SyncAllStates();
    layout_->TrimLog(layout_->OpSeq());
    // A fresh layout replayed to this layout's clock is structurally
    // identical (stream independence again), including bucket ids and the
    // op sequence, so extracted states can count on it as they are.
    out.layout_->AdvanceTo(layout_->now());
    out.layout_->TrimLog(out.layout_->OpSeq());
    if (out.layout_->OpSeq() != layout_->OpSeq() ||
        !std::ranges::equal(out.layout_->Spans(), layout_->Spans())) {
      return Status::FailedPrecondition(
          "ExtractIf: replayed layout diverged from the source layout");
    }
  }
  out.now_ = now_;
  std::visit(
      [&](auto& slab) {
        using SlabT = std::decay_t<decltype(slab)>;
        auto& dst = std::get<SlabT>(out.slab_);
        for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
          if (!slab.entries.live(i)) continue;
          auto& moved = slab.entries.at(i);
          if (!pred(moved.key)) continue;
          out.Insert(dst, moved.key, moved.last_tick, std::move(moved.state));
          Evict(slab.entries, i);
        }
      },
      slab_);
  TDS_AUDIT_MUTATION(AuditInvariants());
  TDS_AUDIT_MUTATION(out.AuditInvariants());
  return out;
}

StatusOr<AggregateRegistry> AggregateRegistry::Copy() {
  // Entry-only injection, like MergeFrom / ExtractIf: a fired copy leaves
  // this registry untouched.
  TDS_FAILPOINT_RETURN("registry.copy");
  AggregateRegistry copy(decay_, options_, backend_, resolved_);
  copy.now_ = now_;
  copy.expiry_age_ = expiry_age_;
  if (layout_ != nullptr) {
    // Synced states at a trimmed log, so the copied layout needs no log
    // and every copied state counts on it as it is.
    SyncAllStates();
    layout_->TrimLog(layout_->OpSeq());
    copy.layout_ = std::make_unique<WbmhLayout>(*layout_);
  }
  std::visit(
      [&](const auto& slab) {
        using SlabT = std::decay_t<decltype(slab)>;
        SlabT fresh{slab.params, {}};
        if constexpr (kIsWbmh<typename SlabT::StateType>) {
          fresh.params.layout = copy.layout_.get();
        }
        copy.slab_ = std::move(fresh);
        auto& dst = std::get<SlabT>(copy.slab_);
        copy.ReserveTable(live_);
        for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
          if (!slab.entries.live(i)) continue;
          const auto& entry = slab.entries.at(i);
          copy.Insert(dst, entry.key, entry.last_tick, entry.state);
        }
      },
      slab_);
  // Syncing and trimming are representation mutations of the source.
  TDS_AUDIT_MUTATION(AuditInvariants());
  TDS_AUDIT_MUTATION(copy.AuditInvariants());
  return copy;
}

void AggregateRegistry::Advance(Tick now) {
  TDS_CHECK_GE(now, now_);
  now_ = now;
  std::visit(
      [&](auto& slab) {
        auto& entries = slab.entries;
        for (uint32_t i = 0; i < entries.extent(); ++i) {
          if (!entries.live(i)) continue;
          entries.at(i).state.Advance(slab.params, now);
          // An eager advance rewrites every key's internal representation
          // (decay, cascades, re-rounding), so every key's encoded payload
          // changes — the whole registry is dirty for checkpoint purposes.
          MarkDirty(i);
        }
        if (expiry_age_ == kInfiniteHorizon) return;
        for (uint32_t i = 0; i < entries.extent(); ++i) {
          if (entries.live(i) &&
              AgeAt(entries.at(i).last_tick, now_) > expiry_age_) {
            Evict(entries, i);
          }
        }
      },
      slab_);
  // The eager pass completes an epoch and restarts the lazy cursor.
  sweep_cursor_ = 0;
  ++epoch_;
  if (layout_ != nullptr) {
    // Advance() synced every state, so the whole log can go.
    layout_->TrimLog(layout_->OpSeq());
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
}

double AggregateRegistry::Query(uint64_t key, Tick now) const {
  TDS_CHECK_GE(now, now_);
  return std::visit(
      [&](const auto& slab) {
        const uint32_t index = FindIn(slab.entries, key);
        if (index == kNone) return 0.0;
        return slab.entries.at(index).state.Query(slab.params, now);
      },
      slab_);
}

double AggregateRegistry::QueryTotal(Tick now) const {
  TDS_CHECK_GE(now, now_);
  return std::visit(
      [&](const auto& slab) {
        double total = 0.0;
        for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
          if (!slab.entries.live(i)) continue;
          total += slab.entries.at(i).state.Query(slab.params, now);
        }
        return total;
      },
      slab_);
}

bool AggregateRegistry::Contains(uint64_t key) const {
  return Find(key) != kNone;
}

size_t AggregateRegistry::ArenaExtent() const {
  return std::visit(
      [](const auto& slab) -> size_t { return slab.entries.extent(); }, slab_);
}

size_t AggregateRegistry::ArenaOccupied() const {
  return std::visit(
      [](const auto& slab) { return slab.entries.occupied(); }, slab_);
}

size_t AggregateRegistry::StorageBits() const {
  size_t bits = std::visit(
      [](const auto& slab) {
        size_t sum = 0;
        for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
          if (!slab.entries.live(i)) continue;
          sum += slab.entries.at(i).state.StorageBits(slab.params);
        }
        return sum;
      },
      slab_);
  // Shared boundary storage, charged once across all keys (the paper's
  // amortization).
  if (layout_ != nullptr) bits += layout_->StorageBits();
  return bits;
}

double AggregateRegistry::KeyView::Query(Tick now) const {
  return std::visit(
      [&](const auto& slab) {
        return slab.entries.at(index_).state.Query(slab.params, now);
      },
      registry_->slab_);
}

size_t AggregateRegistry::KeyView::StorageBits() const {
  return std::visit(
      [&](const auto& slab) {
        return slab.entries.at(index_).state.StorageBits(slab.params);
      },
      registry_->slab_);
}

Status AggregateRegistry::KeyView::EncodeState(Encoder& encoder) const {
  return std::visit(
      [&](const auto& slab) {
        return EncodePayload(slab.entries.at(index_).state, slab.params,
                             encoder);
      },
      registry_->slab_);
}

Status AggregateRegistry::AuditInvariants() {
  TDS_AUDIT_CHECK(
      !table_.empty() && (table_.size() & (table_.size() - 1)) == 0,
      "table capacity must be a power of two");
  TDS_AUDIT_CHECK(table_mask_ == table_.size() - 1, "stale table mask");
  TDS_AUDIT_CHECK(live_ + tombstones_ < table_.size(),
                  "table has no empty entry left");
  if (layout_ != nullptr) {
    const Status layout_audit = layout_->AuditInvariants();
    if (!layout_audit.ok()) return layout_audit;
  }
  // One backend dispatch: the table, the slab and every key's own audit.
  return std::visit(
      [&](const auto& slab) -> Status {
        const auto& entries = slab.entries;
        if constexpr (requires { slab.params.AuditInvariants(); }) {
          const Status params = slab.params.AuditInvariants();
          if (!params.ok()) return params;
        }
        size_t live = 0;
        size_t tombs = 0;
        for (size_t pos = 0; pos < table_.size(); ++pos) {
          const uint32_t index = table_[pos];
          if (index == kEmptyEntry) continue;
          if (index == kTombEntry) {
            ++tombs;
            continue;
          }
          TDS_AUDIT_CHECK(index < entries.extent(),
                          "table entry out of slab range");
          TDS_AUDIT_CHECK(entries.live(index),
                          "table entry points at a freed entry");
          const auto& entry = entries.at(index);
          TDS_AUDIT_CHECK(FindIn(entries, entry.key) == index,
                          "entry unreachable from its key's probe chain");
          TDS_AUDIT_CHECK(entry.last_tick <= now_,
                          "entry clock ahead of the registry clock");
          // A key clocked past the registry would abort the next in-order
          // update; Decode rejects such a blob through this check.
          TDS_AUDIT_CHECK(entry.state.now(slab.params) <= now_,
                          "key state clock ahead of the registry clock");
          ++live;
        }
        TDS_AUDIT_CHECK(live == live_, "live-count drift");
        TDS_AUDIT_CHECK(tombs == tombstones_, "tombstone-count drift");
        size_t slab_live = 0;
        for (uint32_t i = 0; i < entries.extent(); ++i) {
          if (!entries.live(i)) continue;
          ++slab_live;
          const Status sub = entries.at(i).state.AuditInvariants(slab.params);
          if (!sub.ok()) return sub;
        }
        TDS_AUDIT_CHECK(slab_live == live_, "slab/table live-count mismatch");
        TDS_AUDIT_CHECK(entries.free_count() == entries.extent() - live_,
                        "slab free-list accounting drift");
        TDS_AUDIT_CHECK(entries.occupied() == live_,
                        "slab occupancy / live-count drift");
        return Status::OK();
      },
      slab_);
}

Status AggregateRegistry::EncodeState(std::string* out) {
  size_t entry_count = 0;
  return EncodeStateImpl(out, /*partial=*/false, /*since=*/0, &entry_count);
}

Status AggregateRegistry::EncodeStateImpl(std::string* out, bool partial,
                                          uint64_t since,
                                          size_t* entry_count) {
  TDS_CHECK(out != nullptr);
  TDS_FAILPOINT_RETURN("registry.encode");
  const std::string decay_name = decay_->Name();
  Encoder encoder;
  encoder.PutString(kRegistryMagic);
  encoder.PutString(decay_name);
  encoder.PutVarint(static_cast<uint64_t>(backend_));
  encoder.PutDouble(resolved_.epsilon());
  encoder.PutSigned(resolved_.start());
  encoder.PutSigned(now_);
  // Sorted keys: the codec's self-inverse contract (byte-identical
  // re-encode, see AuditSnapshotRoundTrip) rules out hash-order iteration.
  // A partial encode keeps only the entries dirtied after `since`; the
  // header (clock, layout) is always emitted so appliers stay in lockstep
  // even across update-free stretches.
  std::vector<std::pair<uint64_t, uint32_t>> keys;
  keys.reserve(partial ? 0 : live_);
  std::visit(
      [&](const auto& slab) {
        for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
          if (!slab.entries.live(i)) continue;
          if (partial && DirtyEpoch(i) <= since) continue;
          keys.push_back({slab.entries.at(i).key, i});
        }
      },
      slab_);
  std::sort(keys.begin(), keys.end());
  *entry_count = keys.size();
  encoder.PutVarint(keys.size());
  // One scratch encoder takes every per-key payload in turn.
  Encoder scratch;
  if (layout_ != nullptr) {
    // Layout snapshots carry no op log, so every state must be at the
    // layout's op sequence before the log is dropped.
    SyncAllStates();
    layout_->TrimLog(layout_->OpSeq());
    const Status status = layout_->EncodeState(scratch);
    if (!status.ok()) return status;
    encoder.PutString(scratch.view());
  }
  const Status status = std::visit(
      [&](const auto& slab) -> Status {
        using State = typename std::decay_t<decltype(slab)>::StateType;
        // Every other backend wraps each key's payload in the
        // EncodeDecayedSum envelope, whose prefix (magic, type, decay name)
        // is the same for every key: built once here.
        Encoder envelope_prefix;
        if (layout_ == nullptr) {
          PutSnapshotEnvelopePrefix(envelope_prefix, State::kName, decay_name);
        }
        const std::string_view prefix = envelope_prefix.view();
        for (const auto& [key, index] : keys) {
          const auto& entry = slab.entries.at(index);
          encoder.PutVarint(key);
          encoder.PutSigned(entry.last_tick);
          scratch.Clear();
          const Status payload =
              EncodePayload(entry.state, slab.params, scratch);
          if (!payload.ok()) return payload;
          if (layout_ == nullptr) {
            encoder.PutVarint(prefix.size() + VarintLength(scratch.size()) +
                              scratch.size());
            encoder.PutRaw(prefix);
          }
          encoder.PutString(scratch.view());
        }
        return Status::OK();
      },
      slab_);
  if (!status.ok()) return status;
  *out = encoder.Finish();
  // Encoding syncs states and trims the layout log — representation
  // mutations that deserve the same audit net as logical ones.
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

void AggregateRegistry::EnableCheckpointTracking() {
  if (ckpt_tracking_) return;
  ckpt_tracking_ = true;
  // Stamp the present population so the first capture (since == 0) is a
  // complete snapshot no matter when tracking was switched on.
  std::visit(
      [&](auto& slab) {
        for (uint32_t i = 0; i < slab.entries.extent(); ++i) {
          if (slab.entries.live(i)) MarkDirty(i);
        }
      },
      slab_);
}

Status AggregateRegistry::CaptureCheckpointDelta(uint64_t since,
                                                 CheckpointDelta* out) {
  TDS_CHECK(out != nullptr);
  if (!ckpt_tracking_) {
    return Status::FailedPrecondition(
        "CaptureCheckpointDelta requires EnableCheckpointTracking");
  }
  if (since >= ckpt_epoch_) {
    return Status::InvalidArgument(
        "CaptureCheckpointDelta: since epoch is not in the past");
  }
  out->epoch = ckpt_epoch_;
  out->dead_keys.clear();
  const Status encoded =
      EncodeStateImpl(&out->blob, /*partial=*/true, since, &out->dirty_count);
  if (!encoded.ok()) return encoded;
  // Dead keys: evicted after `since` and not alive now. A key recreated
  // after its eviction is covered by its (dirty) update entry — appliers
  // replace it wholesale — so only keys that stayed dead need a tombstone.
  // Entries at or before `since` were carried by a capture the caller has
  // already committed, so the log is pruned to what later captures might
  // still need.
  std::vector<std::pair<uint64_t, uint64_t>> keep;
  keep.reserve(dead_keys_.size());
  for (const auto& [key, epoch] : dead_keys_) {
    if (epoch <= since) continue;
    keep.push_back({key, epoch});
    if (Find(key) == kNone) out->dead_keys.push_back(key);
  }
  dead_keys_ = std::move(keep);
  std::sort(out->dead_keys.begin(), out->dead_keys.end());
  out->dead_keys.erase(
      std::unique(out->dead_keys.begin(), out->dead_keys.end()),
      out->dead_keys.end());
  // Open the next epoch only after a successful capture; mutations landing
  // from here on stamp the new epoch and belong to the next delta.
  ++ckpt_epoch_;
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

StatusOr<AggregateRegistry> AggregateRegistry::Decode(DecayPtr decay,
                                                      const Options& options,
                                                      std::string_view data) {
  TDS_FAILPOINT_RETURN("registry.decode");
  auto created = Create(std::move(decay), options);
  if (!created.ok()) return created.status();
  AggregateRegistry registry = std::move(created).value();
  const std::string decay_name = registry.decay_->Name();
  Decoder decoder(data);
  std::string_view magic;
  std::string_view name;
  if (!decoder.GetView(&magic) || magic != kRegistryMagic) {
    return CorruptSnapshot("registry magic");
  }
  if (!decoder.GetView(&name)) return CorruptSnapshot("decay name");
  if (name != decay_name) {
    return Status::InvalidArgument("snapshot decay mismatch: " +
                                   std::string(name));
  }
  uint64_t backend = 0;
  double epsilon = 0.0;
  int64_t start = 0;
  int64_t now = 0;
  uint64_t count = 0;
  if (!decoder.GetVarint(&backend) || !decoder.GetDouble(&epsilon) ||
      !decoder.GetSigned(&start) || !decoder.GetSigned(&now) ||
      !decoder.GetVarint(&count)) {
    return CorruptSnapshot("registry header");
  }
  if (backend != static_cast<uint64_t>(registry.backend_) ||
      epsilon != registry.resolved_.epsilon() ||
      start != registry.resolved_.start()) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  if (now < registry.now_) return CorruptSnapshot("registry clock");
  registry.now_ = now;
  if (registry.layout_ != nullptr) {
    std::string_view blob;
    if (!decoder.GetView(&blob)) return CorruptSnapshot("layout blob");
    Decoder sub(blob);
    const Status status = registry.layout_->DecodeState(sub);
    if (!status.ok()) return status;
    if (!sub.Done()) return CorruptSnapshot("layout trailer");
    if (registry.layout_->now() > now) {
      return CorruptSnapshot("layout clock ahead of the registry");
    }
  }
  // Every entry takes at least three bytes, which bounds a hostile count.
  registry.ReserveTable(std::min<uint64_t>(count, decoder.remaining() / 3));
  const Status entries = std::visit(
      [&](auto& slab) -> Status {
        using State = typename std::decay_t<decltype(slab)>::StateType;
        uint64_t prev_key = 0;
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t key = 0;
          int64_t last_tick = 0;
          std::string_view payload;
          if (!decoder.GetVarint(&key) || !decoder.GetSigned(&last_tick) ||
              !decoder.GetView(&payload)) {
            return CorruptSnapshot("registry entry");
          }
          if (i > 0 && key <= prev_key) {
            return CorruptSnapshot("keys not strictly increasing");
          }
          prev_key = key;
          if (last_tick > now) return CorruptSnapshot("entry clock");
          // Injectable allocation failure: the insert below grows the slab
          // (a decoded registry never has a freed entry to recycle). The
          // ingest path treats allocation failure as fatal by design and
          // evaluates no per-item failpoint.
          TDS_FAILPOINT_RETURN("registry.arena.grow");
          // A WBMH payload is the state's bare encoding; every other one is
          // framed in the EncodeDecayedSum envelope.
          std::string_view body = payload;
          if constexpr (!kIsWbmh<State>) {
            std::string_view type;
            const Status envelope =
                ParseSnapshotEnvelope(payload, decay_name, &type, &body);
            if (!envelope.ok()) return envelope;
            if (type != State::kName) {
              return Status::InvalidArgument("snapshot backend mismatch: " +
                                             std::string(type));
            }
          }
          // The payload decodes under the registry's own constants, so each
          // state's DecodeState rejects state encoded under other options
          // (a WBMH state: another count_epsilon) instead of adopting it.
          Decoder sub(body);
          State state = NewState<State>(slab.params);
          const Status status = state.DecodeState(slab.params, sub);
          if (!status.ok()) return status;
          if constexpr (kIsWbmh<State>) {
            if (!sub.Done()) return CorruptSnapshot("counter trailer");
          }
          registry.Insert(slab, key, last_tick, std::move(state));
        }
        return Status::OK();
      },
      registry.slab_);
  if (!entries.ok()) return entries;
  if (!decoder.Done()) return CorruptSnapshot("registry trailer");
  const Status audit = RefuseUnaudited(registry.AuditInvariants());
  if (!audit.ok()) return audit;
  return registry;
}

}  // namespace tds
