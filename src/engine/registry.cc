#include "engine/registry.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "core/ceh.h"
#include "core/coarse_ceh.h"
#include "core/ewma.h"
#include "core/exact.h"
#include "core/polyexp_counter.h"
#include "core/recent_items.h"
#include "core/snapshot.h"
#include "histogram/wbmh_counter.h"
#include "histogram/wbmh_layout.h"
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
/// registry syncs every counter and trims the whole log (amortized O(1)
/// per op: each op is replayed at most once per counter either way).
constexpr uint64_t kMaxRetainedOps = 16384;
/// Slots the lazy expiry sweep examines per applied (tick, key) run: a
/// single Update is one run, so the per-item path sweeps this many slots
/// per item, while a coalesced batch sweeps per distinct run.
constexpr size_t kSweepPerRun = 2;

WbmhCounter& AsCounter(DecayedAggregate& aggregate) {
  return static_cast<WbmhCounter&>(aggregate);
}

const char* BackendTypeName(Backend backend) {
  switch (backend) {
    case Backend::kExact:
      return "EXACT";
    case Backend::kEwma:
      return "EWMA";
    case Backend::kRecentItems:
      return "RECENT_ITEMS";
    case Backend::kCeh:
      return "CEH";
    case Backend::kCoarseCeh:
      return "COARSE_CEH";
    case Backend::kWbmh:
      return "WBMH";
    case Backend::kPolyExp:
      return "POLYEXP_PIPE";
    case Backend::kAuto:
      break;
  }
  TDS_CHECK_MSG(false, "unresolved backend");
  return "";
}

/// Calls f on `aggregate` as the concrete type the registry builds for
/// `backend` (NewAggregate), so the codec's per-key calls bind statically.
template <typename F>
Status WithConcreteType(Backend backend, DecayedAggregate& aggregate, F&& f) {
  switch (backend) {
    case Backend::kExact:
      return f(static_cast<ExactDecayedSum&>(aggregate));
    case Backend::kEwma:
      return f(static_cast<EwmaCounter&>(aggregate));
    case Backend::kRecentItems:
      return f(static_cast<RecentItemsExpCounter&>(aggregate));
    case Backend::kCeh:
      return f(static_cast<CehDecayedSum&>(aggregate));
    case Backend::kCoarseCeh:
      return f(static_cast<CoarseCehDecayedSum&>(aggregate));
    case Backend::kWbmh:
      return f(AsCounter(aggregate));
    case Backend::kPolyExp:
      return f(static_cast<PolyExpCounter&>(aggregate));
    case Backend::kAuto:
      break;
  }
  TDS_CHECK_MSG(false, "unresolved backend");
  return Status::OK();
}

/// EncodeState is infallible for every backend but WBMH.
template <typename T>
Status EncodePayload(const T& aggregate, Encoder& encoder) {
  if constexpr (std::is_void_v<decltype(aggregate.EncodeState(encoder))>) {
    aggregate.EncodeState(encoder);
    return Status::OK();
  } else {
    return aggregate.EncodeState(encoder);
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
  if (backend == Backend::kWbmh) {
    if (!decay->IsWbmhAdmissible()) {
      return Status::FailedPrecondition(
          "decay function fails the WBMH admissibility test "
          "(g(x)/g(x+1) must be non-increasing); use another backend");
    }
    WbmhLayout::Options layout_options;
    layout_options.decay = decay;
    layout_options.epsilon = options.aggregate.epsilon();
    layout_options.start = options.aggregate.start();
    auto layout = WbmhLayout::Create(layout_options);
    if (!layout.ok()) return layout.status();
    registry.layout_ = std::make_shared<WbmhLayout>(std::move(layout).value());
    // A fresh layout already sits at the stream start tick; align the
    // registry clock so an empty registry's snapshot is self-consistent
    // (decode rejects blobs whose layout clock is ahead of the registry).
    registry.now_ = registry.layout_->now();
  }
  // Probe construction: surface option/decay incompatibilities here, so the
  // per-key create inside the ingest hot path can simply CHECK.
  auto probe = registry.NewAggregate();
  if (!probe.ok()) return probe.status();
  registry.expiry_age_ = registry.DeriveExpiryAge();
  return registry;
}

StatusOr<std::unique_ptr<DecayedAggregate>> AggregateRegistry::NewAggregate()
    const {
  if (layout_ != nullptr) {
    // Counts round to the bucketing precision, like a private WbmhDecayedSum
    // with the default count_epsilon.
    return std::unique_ptr<DecayedAggregate>(std::make_unique<WbmhCounter>(
        layout_, WbmhCounter::Options{resolved_.epsilon()}));
  }
  return MakeDecayedSum(decay_, resolved_);
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
  size_t pos = SplitMix64(key) & table_mask_;
  while (true) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) return SlotArena<Slot>::kNone;
    if (entry != kTombEntry && arena_.at(entry).key == key) return entry;
    pos = (pos + 1) & table_mask_;
  }
}

template <typename MakeAggregate>
uint32_t AggregateRegistry::FindOrInsert(uint64_t key, Tick last_tick,
                                         MakeAggregate&& make) {
  RehashIfNeeded();
  size_t pos = SplitMix64(key) & table_mask_;
  size_t insert_pos = table_.size();  // first tombstone on the probe path
  while (true) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) break;
    if (entry == kTombEntry) {
      if (insert_pos == table_.size()) insert_pos = pos;
    } else if (arena_.at(entry).key == key) {
      return entry;
    }
    pos = (pos + 1) & table_mask_;
  }
  if (insert_pos == table_.size()) {
    insert_pos = pos;
  } else {
    --tombstones_;
  }
  const uint32_t index = arena_.Allocate();
  Slot& slot = arena_.at(index);
  slot.aggregate = make();
  slot.key = key;
  slot.last_tick = last_tick;
  if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  table_[insert_pos] = index;
  ++live_;
  return index;
}

uint32_t AggregateRegistry::GetOrCreate(uint64_t key) {
  return FindOrInsert(key, now_, [this] {
    auto aggregate = NewAggregate();
    TDS_CHECK_MSG(aggregate.ok(), "per-key aggregate construction failed");
    return std::move(aggregate).value();
  });
}

void AggregateRegistry::Insert(uint64_t key,
                               std::unique_ptr<DecayedAggregate> aggregate,
                               Tick last_tick) {
  bool inserted = false;
  FindOrInsert(key, last_tick, [&] {
    inserted = true;
    return std::move(aggregate);
  });
  TDS_CHECK_MSG(inserted, "slot insert of a key that is already live");
}

void AggregateRegistry::ReserveTable(size_t keys) {
  size_t capacity = table_.size();
  while ((keys + 1) * 10 >= capacity * 7) capacity *= 2;
  if (capacity != table_.size()) Rehash(capacity);
}

void AggregateRegistry::RehashIfNeeded() {
  if ((live_ + tombstones_ + 1) * 10 < table_.size() * 7) return;
  // Double only when live keys drive the load; a tombstone-heavy table is
  // rebuilt at the same size to reclaim the probe chains.
  size_t capacity = table_.size();
  if ((live_ + 1) * 10 >= capacity * 7) capacity *= 2;
  Rehash(capacity);
}

void AggregateRegistry::Rehash(size_t new_capacity) {
  std::vector<uint32_t> old = std::move(table_);
  table_.assign(new_capacity, kEmptyEntry);
  table_mask_ = new_capacity - 1;
  tombstones_ = 0;
  for (const uint32_t entry : old) {
    if (entry == kEmptyEntry || entry == kTombEntry) continue;
    size_t pos = SplitMix64(arena_.at(entry).key) & table_mask_;
    while (table_[pos] != kEmptyEntry) pos = (pos + 1) & table_mask_;
    table_[pos] = entry;
  }
}

void AggregateRegistry::Evict(uint32_t index) {
  // The eviction must reach the next checkpoint delta so appliers drop the
  // key too; SlotArena::Free resets the slot (dirty_epoch included), so the
  // record has to be taken before the slot dies.
  if (ckpt_tracking_) dead_keys_.push_back({arena_.at(index).key, ckpt_epoch_});
  size_t pos = SplitMix64(arena_.at(index).key) & table_mask_;
  while (table_[pos] != index) {
    TDS_CHECK(table_[pos] != kEmptyEntry);
    pos = (pos + 1) & table_mask_;
  }
  table_[pos] = kTombEntry;
  ++tombstones_;
  arena_.Free(index);
  --live_;
}

void AggregateRegistry::SweepStep(size_t budget) {
  if (expiry_age_ == kInfiniteHorizon || arena_.extent() == 0) return;
  budget = std::min<size_t>(budget, arena_.extent());
  for (size_t i = 0; i < budget; ++i) {
    if (sweep_cursor_ >= arena_.extent()) {
      sweep_cursor_ = 0;
      ++epoch_;
    }
    const uint32_t index = sweep_cursor_++;
    const Slot& slot = arena_.at(index);
    if (slot.aggregate != nullptr &&
        AgeAt(slot.last_tick, now_) > expiry_age_) {
      Evict(index);
    }
  }
}

void AggregateRegistry::SyncAllCounters() {
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    AsCounter(*slot.aggregate).Sync();
  }
}

void AggregateRegistry::MaybeTrimSharedLog() {
  if (layout_ == nullptr) return;
  if (layout_->OpSeq() - layout_->LogStart() <= kMaxRetainedOps) return;
  // A counter may only be outrun by a trim after it has synced, so the
  // policy is sync-all-then-trim (WbmhCounter::Sync CHECKs this).
  SyncAllCounters();
  layout_->TrimLog(layout_->OpSeq());
}

void AggregateRegistry::Update(uint64_t key, Tick t, uint64_t value) {
  TDS_CHECK_GE(t, now_);
  now_ = t;
  const uint32_t index = GetOrCreate(key);
  Slot& slot = arena_.at(index);
  slot.aggregate->Update(t, value);
  slot.last_tick = t;
  if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  SweepStep(kSweepPerRun);
  MaybeTrimSharedLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void AggregateRegistry::UpdateBatch(std::span<const KeyedItem> items) {
  if (items.empty()) return;
  TDS_CHECK_GE(items.front().t, now_);
  for (size_t i = 1; i < items.size(); ++i) {
    TDS_CHECK_GE(items[i].t, items[i - 1].t);
  }
  // Tick-major processing keeps the shared WBMH layout's clock monotone and
  // replays its structural ops in the same order as per-item ingestion
  // (merge re-rounding is order-sensitive). The input is already tick-
  // sorted, so the tick segments are contiguous as-is.
  size_t begin = 0;
  size_t total_runs = 0;
  while (begin < items.size()) {
    const Tick t = items[begin].t;
    size_t end = begin;
    while (end < items.size() && items[end].t == t) ++end;
    now_ = t;
    total_runs += IngestTickSegment(t, items.subspan(begin, end - begin));
    begin = end;
  }
  SweepStep(kSweepPerRun * total_runs);
  MaybeTrimSharedLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

size_t AggregateRegistry::IngestTickSegment(Tick t,
                                            std::span<const KeyedItem> segment) {
  // Group the segment's items by key in O(n): an open-addressing scratch
  // map assigns each key a run, and per-item index chains keep that key's
  // items in encounter order. Runs then apply in first-encounter order —
  // per-key order is what per-item Update would have produced, and the
  // reordering across keys is invisible because keys are independent and
  // the shared layout state is a pure function of the (already advanced)
  // tick. One table probe, one aggregate dispatch, and one histogram
  // cascade per run instead of per item.
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
    size_t probe = SplitMix64(key) & cap_mask;
    while (true) {
      const uint32_t r = group_table_[probe];
      if (r == kNoRun) {
        group_table_[probe] = static_cast<uint32_t>(runs_.size());
        runs_.push_back(Run{key, i, i});
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
  // Four-stage prefetch pipeline over the run directory. A cold key costs
  // four dependent misses: the table line, the slot it names, the
  // aggregate object the slot points at, and the state block the object
  // points at. While run r does real work, run r+4's table line, run r+3's
  // slot, run r+2's aggregate object and run r+1's state are requested, so
  // each miss has about one run's work to land. Every stage re-reads the
  // table's first probe entry and checks the slot's key, and issues only
  // prefetches and const reads: on a collision or a key not yet created the
  // stage does nothing, and a rehash inside GetOrCreate can make a pending
  // guess stale but never wrong (hints, never loads of mutable state).
  const size_t num_runs = runs_.size();
  auto prefetch_table = [this](size_t r) {
    TDS_PREFETCH(&table_[SplitMix64(runs_[r].key) & table_mask_]);
  };
  auto prefetch_slot = [this](size_t r) {
    const uint32_t entry = table_[SplitMix64(runs_[r].key) & table_mask_];
    if (entry != kEmptyEntry && entry != kTombEntry) arena_.Prefetch(entry);
  };
  // The live aggregate of run r's key if the first probe finds it.
  auto guessed_aggregate = [this](size_t r) -> const DecayedAggregate* {
    const uint64_t key = runs_[r].key;
    const uint32_t entry = table_[SplitMix64(key) & table_mask_];
    if (entry == kEmptyEntry || entry == kTombEntry) return nullptr;
    const Slot& slot = arena_.at(entry);
    return slot.key == key ? slot.aggregate.get() : nullptr;
  };
  auto prefetch_aggregate = [&guessed_aggregate](size_t r) {
    // The hot members of every aggregate sit in its first 80 bytes, which
    // two lines cover at any 16-byte-aligned address.
    if (const DecayedAggregate* aggregate = guessed_aggregate(r)) {
      const auto* bytes = reinterpret_cast<const char*>(aggregate);
      TDS_PREFETCH(bytes);
      TDS_PREFETCH(bytes + 64);
    }
  };
  auto prefetch_state = [&guessed_aggregate](size_t r) {
    if (const DecayedAggregate* aggregate = guessed_aggregate(r)) {
      aggregate->PrefetchState();
    }
  };
  // While run r is applied, runs r+4 .. r+1 each move one stage on; the
  // four calls before run 0 fill the pipeline.
  auto advance_pipeline = [&](size_t lead) {
    if (lead < num_runs) prefetch_table(lead);
    if (lead >= 1 && lead - 1 < num_runs) prefetch_slot(lead - 1);
    if (lead >= 2 && lead - 2 < num_runs) prefetch_aggregate(lead - 2);
    if (lead >= 3 && lead - 3 < num_runs) prefetch_state(lead - 3);
  };
  for (size_t lead = 0; lead < 4; ++lead) advance_pipeline(lead);
  for (size_t r = 0; r < num_runs; ++r) {
    advance_pipeline(r + 4);
    const Run& run = runs_[r];
    run_scratch_.clear();
    for (uint32_t i = run.head;; i = chain_[i]) {
      run_scratch_.push_back(StreamItem{t, segment[i].value});
      if (i == run.tail) break;
    }
    const uint32_t index = GetOrCreate(run.key);
    Slot& slot = arena_.at(index);
    slot.aggregate->UpdateBatch(run_scratch_);
    slot.last_tick = t;
    if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  }
  return runs_.size();
}

Status AggregateRegistry::MergeFrom(AggregateRegistry&& other) {
  // Entry-only injection: past this point the per-slot loop moves state,
  // so a mid-loop abort could not honor "on error this registry is
  // unchanged".
  TDS_FAILPOINT_RETURN("registry.merge");
  if (decay_->Name() != other.decay_->Name() || backend_ != other.backend_ ||
      resolved_.epsilon() != other.resolved_.epsilon() ||
      resolved_.start() != other.resolved_.start()) {
    return Status::InvalidArgument("MergeFrom: registry options mismatch");
  }
  // Disjointness pre-check before any mutation, so a failed merge leaves
  // both registries intact.
  for (uint32_t i = 0; i < other.arena_.extent(); ++i) {
    const Slot& src = other.arena_.at(i);
    if (src.aggregate != nullptr && Find(src.key) != SlotArena<Slot>::kNone) {
      return Status::InvalidArgument("MergeFrom: registries share a key");
    }
  }
  if (layout_ != nullptr) {
    // Layout state at a given clock is stream-independent (the paper's
    // boundary-sharing argument), so advancing the lagging layout to the
    // leading layout's clock makes the two structurally identical — same
    // bucket spans, same bucket ids, same op sequence — and synced counters
    // can move across as they are. Advancing a layout is exactly what
    // ingesting at the later tick would have done, so the merged state
    // stays bit-identical to a serially-fed registry.
    const Tick layout_cut = std::max(layout_->now(), other.layout_->now());
    layout_->AdvanceTo(layout_cut);
    other.layout_->AdvanceTo(layout_cut);
    SyncAllCounters();
    other.SyncAllCounters();
    layout_->TrimLog(layout_->OpSeq());
    other.layout_->TrimLog(other.layout_->OpSeq());
    if (layout_->OpSeq() != other.layout_->OpSeq() ||
        !std::ranges::equal(layout_->Spans(), other.layout_->Spans())) {
      return Status::FailedPrecondition(
          "MergeFrom: shared layouts diverged at one clock");
    }
  }
  // Per-key aggregates move over un-advanced: a key's state remains the
  // pure function of its own update sequence (advancing here would insert
  // an extra decay-and-reround step that a serially-fed registry never
  // performs).
  now_ = std::max(now_, other.now_);
  ReserveTable(live_ + other.live_);
  for (uint32_t i = 0; i < other.arena_.extent(); ++i) {
    Slot& src = other.arena_.at(i);
    if (src.aggregate == nullptr) continue;
    if (layout_ != nullptr) AsCounter(*src.aggregate).RebindLayout(layout_);
    Insert(src.key, std::move(src.aggregate), src.last_tick);
  }
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
    SyncAllCounters();
    layout_->TrimLog(layout_->OpSeq());
    // A fresh layout replayed to this layout's clock is structurally
    // identical (stream independence again), including bucket ids and the
    // op sequence, so extracted counters can bind to it as they are.
    out.layout_->AdvanceTo(layout_->now());
    out.layout_->TrimLog(out.layout_->OpSeq());
    if (out.layout_->OpSeq() != layout_->OpSeq() ||
        !std::ranges::equal(out.layout_->Spans(), layout_->Spans())) {
      return Status::FailedPrecondition(
          "ExtractIf: replayed layout diverged from the source layout");
    }
  }
  out.now_ = now_;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& src = arena_.at(i);
    if (src.aggregate == nullptr || !pred(src.key)) continue;
    if (layout_ != nullptr) AsCounter(*src.aggregate).RebindLayout(out.layout_);
    out.Insert(src.key, std::move(src.aggregate), src.last_tick);
    Evict(i);
  }
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
    // Synced counters at a trimmed log, so the copied layout needs no log
    // and every cloned counter can rebind to it as it is.
    SyncAllCounters();
    layout_->TrimLog(layout_->OpSeq());
    copy.layout_ = std::make_shared<WbmhLayout>(*layout_);
  }
  copy.ReserveTable(live_);
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    std::unique_ptr<DecayedAggregate> clone = slot.aggregate->Clone();
    if (layout_ != nullptr) AsCounter(*clone).RebindLayout(copy.layout_);
    copy.Insert(slot.key, std::move(clone), slot.last_tick);
  }
  // Syncing and trimming are representation mutations of the source.
  TDS_AUDIT_MUTATION(AuditInvariants());
  TDS_AUDIT_MUTATION(copy.AuditInvariants());
  return copy;
}

void AggregateRegistry::Advance(Tick now) {
  TDS_CHECK_GE(now, now_);
  now_ = now;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    slot.aggregate->Advance(now);
    // An eager advance rewrites every aggregate's internal representation
    // (decay, cascades, re-rounding), so every key's encoded payload
    // changes — the whole registry is dirty for checkpoint purposes.
    if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  }
  if (expiry_age_ != kInfiniteHorizon) {
    for (uint32_t i = 0; i < arena_.extent(); ++i) {
      const Slot& slot = arena_.at(i);
      if (slot.aggregate != nullptr &&
          AgeAt(slot.last_tick, now_) > expiry_age_) {
        Evict(i);
      }
    }
  }
  // The eager pass completes an epoch and restarts the lazy cursor.
  sweep_cursor_ = 0;
  ++epoch_;
  if (layout_ != nullptr) {
    // Advance() synced every counter, so the whole log can go.
    layout_->TrimLog(layout_->OpSeq());
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
}

double AggregateRegistry::Query(uint64_t key, Tick now) const {
  TDS_CHECK_GE(now, now_);
  const uint32_t index = Find(key);
  if (index == SlotArena<Slot>::kNone) return 0.0;
  return arena_.at(index).aggregate->Query(now);
}

double AggregateRegistry::QueryTotal(Tick now) const {
  TDS_CHECK_GE(now, now_);
  double total = 0.0;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate != nullptr) total += slot.aggregate->Query(now);
  }
  return total;
}

bool AggregateRegistry::Contains(uint64_t key) const {
  return Find(key) != SlotArena<Slot>::kNone;
}

size_t AggregateRegistry::StorageBits() const {
  size_t bits = 0;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate != nullptr) bits += slot.aggregate->StorageBits();
  }
  // Shared boundary storage, charged once across all keys (the paper's
  // amortization).
  if (layout_ != nullptr) bits += layout_->StorageBits();
  return bits;
}

Status AggregateRegistry::AuditInvariants() {
  TDS_AUDIT_CHECK(
      !table_.empty() && (table_.size() & (table_.size() - 1)) == 0,
      "table capacity must be a power of two");
  TDS_AUDIT_CHECK(table_mask_ == table_.size() - 1, "stale table mask");
  TDS_AUDIT_CHECK(live_ + tombstones_ < table_.size(),
                  "table has no empty entry left");
  size_t live = 0;
  size_t tombs = 0;
  for (size_t pos = 0; pos < table_.size(); ++pos) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) continue;
    if (entry == kTombEntry) {
      ++tombs;
      continue;
    }
    TDS_AUDIT_CHECK(entry < arena_.extent(), "table entry out of arena range");
    const Slot& slot = arena_.at(entry);
    TDS_AUDIT_CHECK(slot.aggregate != nullptr,
                    "table entry points at a freed slot");
    TDS_AUDIT_CHECK(Find(slot.key) == entry,
                    "slot unreachable from its key's probe chain");
    TDS_AUDIT_CHECK(slot.last_tick <= now_,
                    "slot clock ahead of the registry clock");
    // A key clocked past the registry would abort the next in-order
    // update; Decode rejects such a blob through this check.
    TDS_AUDIT_CHECK(slot.aggregate->now() <= now_,
                    "key aggregate clock ahead of the registry clock");
    ++live;
  }
  TDS_AUDIT_CHECK(live == live_, "live-count drift");
  TDS_AUDIT_CHECK(tombs == tombstones_, "tombstone-count drift");
  size_t arena_live = 0;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    if (arena_.at(i).aggregate != nullptr) ++arena_live;
  }
  TDS_AUDIT_CHECK(arena_live == live_, "arena/table live-count mismatch");
  TDS_AUDIT_CHECK(arena_.free_count() == arena_.extent() - live_,
                  "arena free-list accounting drift");
  TDS_AUDIT_CHECK(arena_.occupied() == live_,
                  "arena occupancy / live-count drift");
  if (layout_ != nullptr) {
    const Status layout_audit = layout_->AuditInvariants();
    if (!layout_audit.ok()) return layout_audit;
  }
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    Status sub = Status::OK();
    if (backend_ == Backend::kWbmh) {
      // Counter-level audit: the shared layout was audited once above.
      sub = static_cast<const WbmhCounter&>(*slot.aggregate).AuditInvariants();
    } else if (auto* ceh = dynamic_cast<CehDecayedSum*>(slot.aggregate.get());
               ceh != nullptr) {
      sub = ceh->AuditInvariants();
    }
    if (!sub.ok()) return sub;
  }
  return Status::OK();
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
  // A partial encode keeps only the slots dirtied after `since`; the
  // header (clock, layout) is always emitted so appliers stay in lockstep
  // even across update-free stretches.
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  entries.reserve(partial ? 0 : live_);
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    if (partial && slot.dirty_epoch <= since) continue;
    entries.push_back({slot.key, i});
  }
  std::sort(entries.begin(), entries.end());
  *entry_count = entries.size();
  encoder.PutVarint(entries.size());
  // One scratch encoder takes every per-key payload in turn.
  Encoder scratch;
  if (layout_ != nullptr) {
    // Layout snapshots carry no op log, so every counter must be at the
    // layout's op sequence before the log is dropped.
    SyncAllCounters();
    layout_->TrimLog(layout_->OpSeq());
    const Status status = layout_->EncodeState(scratch);
    if (!status.ok()) return status;
    encoder.PutString(scratch.view());
  }
  // Every other backend wraps each key's payload in the EncodeDecayedSum
  // envelope, whose prefix (magic, type, decay name) is the same for every
  // key: built once here.
  Encoder envelope_prefix;
  if (layout_ == nullptr) {
    PutSnapshotEnvelopePrefix(envelope_prefix, BackendTypeName(backend_),
                              decay_name);
  }
  const std::string_view prefix = envelope_prefix.view();
  for (const auto& [key, index] : entries) {
    Slot& slot = arena_.at(index);
    encoder.PutVarint(key);
    encoder.PutSigned(slot.last_tick);
    scratch.Clear();
    const Status status =
        WithConcreteType(backend_, *slot.aggregate, [&scratch](auto& agg) {
          return EncodePayload(agg, scratch);
        });
    if (!status.ok()) return status;
    if (layout_ == nullptr) {
      encoder.PutVarint(prefix.size() + VarintLength(scratch.size()) +
                        scratch.size());
      encoder.PutRaw(prefix);
    }
    encoder.PutString(scratch.view());
  }
  *out = encoder.Finish();
  // Encoding syncs counters and trims the layout log — representation
  // mutations that deserve the same audit net as logical ones.
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

void AggregateRegistry::EnableCheckpointTracking() {
  if (ckpt_tracking_) return;
  ckpt_tracking_ = true;
  // Stamp the present population so the first capture (since == 0) is a
  // complete snapshot no matter when tracking was switched on.
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& slot = arena_.at(i);
    if (slot.aggregate != nullptr) slot.dirty_epoch = ckpt_epoch_;
  }
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
    if (Find(key) == SlotArena<Slot>::kNone) out->dead_keys.push_back(key);
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
  const std::string_view type_name = BackendTypeName(registry.backend_);
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
    // Injectable allocation failure: the insert below grows the arena (a
    // decoded registry never has a freed slot to recycle). The ingest
    // path treats allocation failure as fatal by design and evaluates no
    // per-item failpoint.
    TDS_FAILPOINT_RETURN("registry.arena.grow");
    // The payload decodes into an aggregate built from the registry's own
    // options, so each structure's DecodeState rejects state encoded under
    // other options instead of adopting it.
    auto aggregate = registry.NewAggregate();
    if (!aggregate.ok()) return aggregate.status();
    // A WBMH payload is the counter's bare state; every other one is framed
    // in the EncodeDecayedSum envelope.
    std::string_view body = payload;
    if (registry.layout_ == nullptr) {
      std::string_view type;
      const Status envelope =
          ParseSnapshotEnvelope(payload, decay_name, &type, &body);
      if (!envelope.ok()) return envelope;
      if (type != type_name) {
        return Status::InvalidArgument("snapshot backend mismatch: " +
                                       std::string(type));
      }
    }
    Decoder sub(body);
    const Status status = WithConcreteType(
        registry.backend_, **aggregate,
        [&sub](auto& concrete) { return concrete.DecodeState(sub); });
    if (!status.ok()) return status;
    if (registry.layout_ != nullptr) {
      if (!sub.Done()) return CorruptSnapshot("counter trailer");
      // Every key's counts round at the registry's one precision.
      if (AsCounter(**aggregate).count_epsilon() !=
          registry.resolved_.epsilon()) {
        return CorruptSnapshot("counter count_epsilon");
      }
    }
    registry.Insert(key, std::move(aggregate).value(), last_tick);
  }
  if (!decoder.Done()) return CorruptSnapshot("registry trailer");
  const Status audit = registry.AuditInvariants();
  if (!audit.ok()) {
    return Status::InvalidArgument("corrupt snapshot: " + audit.message());
  }
  return registry;
}

}  // namespace tds
