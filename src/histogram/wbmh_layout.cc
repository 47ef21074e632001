#include "histogram/wbmh_layout.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {

namespace {
/// Boundary search cap for decays that never (or barely) decay: a region
/// whose end would exceed this is treated as unbounded.
constexpr Tick kMaxBoundary = Tick{1} << 40;
/// How many regions ahead one NextMergeTime call scans. For decays where
/// region widths grow (the WBMH-admissible families of interest, e.g.
/// POLYD) the scan succeeds within a few regions at epsilon 0.1, but a
/// small epsilon makes regions narrow enough to need more; a call that
/// runs out returns the time its scan would resume at, so the pair is
/// asked again then and its merge still fires at the earliest eligible
/// tick.
constexpr int kRegionScanBudget = 128;
}  // namespace

WbmhLayout::WbmhLayout(const Options& options)
    : decay_(options.decay),
      epsilon_(options.epsilon),
      start_(options.start),
      horizon_(options.decay->Horizon()) {
  starts_.push_back(1);
  ExtendBoundaries(1);  // computes b_1
  if (starts_.size() >= 2) {
    seal_period_ = starts_[1] - 1;
  } else {
    // The decay never drops below g(1)/(1+eps) within the search cap: one
    // region covers everything, and the open bucket effectively never seals.
    seal_period_ = kMaxBoundary;
  }
  TDS_CHECK_GE(seal_period_, 1);

  now_ = start_;
  settled_through_ = start_ - 1;
  buckets_.push_back(BucketSpan{next_id_++, start_, start_});
  next_seal_ = start_ + seal_period_ - 1;
}

StatusOr<WbmhLayout> WbmhLayout::Create(const Options& options) {
  if (options.decay == nullptr) {
    return Status::InvalidArgument("WBMH layout requires a decay function");
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("WBMH layout requires epsilon > 0");
  }
  if (!(options.decay->Weight(1) > 0.0)) {
    return Status::InvalidArgument("decay weight at age 1 must be positive");
  }
  return WbmhLayout(options);
}

void WbmhLayout::ExtendBoundaries(Tick age) {
  while (!starts_capped_ && starts_.back() <= age) {
    const Tick prev = starts_.back();
    const double tau = decay_->Weight(prev);
    if (!(tau > 0.0)) {
      // The previous region start already lies past the horizon.
      starts_capped_ = true;
      return;
    }
    const double threshold = tau / (1.0 + epsilon_);
    Tick cap = kMaxBoundary;
    if (horizon_ != kInfiniteHorizon) cap = std::min(cap, horizon_);
    // Largest x in [prev, cap] with Weight(x) >= threshold; the next region
    // starts at x + 1 (paper: b_{i+1} maximal with (1+eps) g(b-1) >= g(b_i)).
    Tick good = prev;  // Weight(prev) == tau >= threshold.
    Tick step = 1;
    while (good + step <= cap && decay_->Weight(good + step) >= threshold) {
      good += step;
      step <<= 1;
    }
    Tick bad = std::min(good + step, cap + 1);
    while (good + 1 < bad) {
      const Tick mid = good + (bad - good) / 2;
      if (decay_->Weight(mid) >= threshold) {
        good = mid;
      } else {
        bad = mid;
      }
    }
    if (good >= cap) {
      // Condition holds through the cap (horizon or search bound): the last
      // region is effectively unbounded.
      starts_capped_ = true;
      starts_.push_back(cap + 1);
      return;
    }
    starts_.push_back(good + 1);
  }
}

int WbmhLayout::RegionIndex(Tick age) {
  if (age < 1) age = 1;
  if (horizon_ != kInfiniteHorizon && age > horizon_) return -1;
  ExtendBoundaries(age);
  if (age >= starts_.back()) {
    // Only reachable when capped (ExtendBoundaries otherwise guarantees
    // starts_.back() > age): the final region is unbounded.
    return static_cast<int>(starts_.size()) - 1;
  }
  auto it = std::upper_bound(starts_.begin(), starts_.end(), age);
  return static_cast<int>(it - starts_.begin()) - 1;
}

int WbmhLayout::RegionCountUpTo(Tick n) {
  Tick probe = n;
  if (horizon_ != kInfiniteHorizon) probe = std::min(probe, horizon_);
  const int r = RegionIndex(probe);
  return r < 0 ? 0 : r + 1;
}

Tick WbmhLayout::NextMergeTime(const BucketSpan& left,
                               const BucketSpan& right, Tick t0) {
  // Merged span would cover slots [left.start, right.end]; at time T its
  // ages run lo(T) .. lo(T)+L with lo(T) = T - right.end + 1. The pair can
  // merge at the first T >= t0 where that whole range fits in one region.
  const Tick t_min = std::max(t0, right.end);
  const Tick lo0 = t_min - right.end + 1;
  int r = RegionIndex(lo0);
  if (r < 0) return kInfiniteHorizon;  // already past the horizon
  const Tick span = right.end - left.start;
  for (int iter = 0;; ++iter, ++r) {
    if (iter == kRegionScanBudget) {
      // Every T before the one whose lo(T) reaches region r was scanned
      // and is ineligible; the last pass extended starts_ past r.
      return right.end - 1 + starts_[r];
    }
    while (static_cast<int>(starts_.size()) <= r + 1 && !starts_capped_) {
      ExtendBoundaries(starts_.back());
    }
    if (r >= static_cast<int>(starts_.size())) break;
    const Tick region_start = starts_[r];
    Tick region_end;
    if (r + 1 < static_cast<int>(starts_.size())) {
      region_end = starts_[r + 1] - 1;
    } else {
      region_end =
          horizon_ != kInfiniteHorizon ? horizon_ : kMaxBoundary;
    }
    if (horizon_ != kInfiniteHorizon) {
      region_end = std::min(region_end, horizon_);
    }
    const Tick lo_min = std::max(region_start, lo0);
    const Tick lo_max = region_end - span;
    if (lo_max >= lo_min) return right.end - 1 + lo_min;
    if (horizon_ != kInfiniteHorizon && region_end >= horizon_) break;
    if (r + 1 >= static_cast<int>(starts_.size())) break;  // capped
  }
  return kInfiniteHorizon;
}

Tick WbmhLayout::NextEventTime() const {
  Tick e = next_seal_;
  if (!merge_events_.empty()) e = std::min(e, merge_events_.top().time);
  e = std::min(e, next_drop_);
  return e;
}

void WbmhLayout::Emit(Op op) {
  log_.push_back(op);
  ++next_seq_;
}

size_t WbmhLayout::IndexOf(uint64_t id) const {
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), id,
      [](const BucketSpan& bucket, uint64_t key) { return bucket.id < key; });
  if (it == buckets_.end() || it->id != id) return buckets_.size();
  return static_cast<size_t>(it - buckets_.begin());
}

void WbmhLayout::SchedulePair(size_t left, Tick t0) {
  const BucketSpan& l = buckets_[left];
  const BucketSpan& r = buckets_[left + 1];
  const Tick t = NextMergeTime(l, r, t0);
  if (t != kInfiniteHorizon) merge_events_.push(PairEvent{t, l.id, r.id});
}

void WbmhLayout::DoSeal(Tick e) {
  buckets_.back().end = e;  // seal arithmetic guarantees full width
  const uint64_t new_id = next_id_++;
  buckets_.push_back(BucketSpan{new_id, e + 1, e + 1});
  Emit(Op{OpKind::kSeal, new_id, 0});
  next_seal_ += seal_period_;
  // The pair (previous, just sealed) may now merge.
  if (buckets_.size() >= 3) SchedulePair(buckets_.size() - 3, e);
}

void WbmhLayout::DoMerge(size_t left, Tick e) {
  TDS_CHECK_LT(left + 2, buckets_.size());  // the right bucket is sealed
  const BucketSpan right = buckets_[left + 1];
  buckets_[left].end = right.end;
  buckets_.erase(buckets_.begin() + static_cast<std::ptrdiff_t>(left) + 1);
  Emit(Op{OpKind::kMerge, buckets_[left].id, right.id});
  if (left > 0) SchedulePair(left - 1, e);
  if (left + 2 < buckets_.size()) SchedulePair(left, e);
}

void WbmhLayout::DoDrops(Tick e) {
  if (horizon_ == kInfiniteHorizon) return;
  size_t dropped = 0;
  // The open bucket never drops.
  while (dropped + 1 < buckets_.size()) {
    const BucketSpan& head = buckets_[dropped];
    if (e < horizon_ + head.end) break;  // newest slot age == horizon+1
    Emit(Op{OpKind::kDrop, head.id, 0});
    ++dropped;
  }
  buckets_.erase(buckets_.begin(),
                 buckets_.begin() + static_cast<std::ptrdiff_t>(dropped));
}

void WbmhLayout::RefreshNextDrop() {
  if (horizon_ == kInfiniteHorizon || buckets_.size() == 1) {
    next_drop_ = kInfiniteHorizon;
    return;
  }
  next_drop_ = horizon_ + buckets_.front().end;
}

void WbmhLayout::ExtendOpenBucket() {
  BucketSpan& open = buckets_.back();
  open.end = std::max(open.start, now_);
}

void WbmhLayout::ProcessTick(Tick e) {
  if (e == next_seal_) DoSeal(e);
  while (!merge_events_.empty() && merge_events_.top().time <= e) {
    const PairEvent ev = merge_events_.top();
    merge_events_.pop();
    // Stale events: the pair was split by an earlier merge or drop, or the
    // right bucket is the open one.
    const size_t left = IndexOf(ev.left);
    if (left + 2 >= buckets_.size()) continue;
    if (buckets_[left + 1].id != ev.right) continue;
    const Tick t = NextMergeTime(buckets_[left], buckets_[left + 1], e);
    if (t <= e) {
      DoMerge(left, e);
    } else if (t != kInfiniteHorizon) {
      merge_events_.push(PairEvent{t, ev.left, ev.right});
    }
  }
  DoDrops(e);
  RefreshNextDrop();
  settled_through_ = e;
}

void WbmhLayout::AdvanceTo(Tick t) {
  TDS_CHECK_GE(t, now_);
  while (true) {
    const Tick e = NextEventTime();
    if (e >= t) break;
    ProcessTick(e);
  }
  now_ = t;
  ExtendOpenBucket();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhLayout::Settle() {
  while (true) {
    const Tick e = NextEventTime();
    if (e > now_) break;
    ProcessTick(e);
  }
  settled_through_ = now_;
  ExtendOpenBucket();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

Status WbmhLayout::AuditInvariants() {
  TDS_AUDIT_CHECK(!buckets_.empty(), "the layout always holds an open bucket");
  TDS_AUDIT_CHECK(now_ >= start_, "clock precedes the stream start");
  TDS_AUDIT_CHECK(settled_through_ <= now_,
                  "settled past the current clock");
  TDS_AUDIT_CHECK(next_seq_ >= log_start_ &&
                      next_seq_ - log_start_ == log_.size(),
                  "op-log window does not match its sequence numbers");
  TDS_AUDIT_CHECK(!starts_.empty() && starts_.front() == 1,
                  "region table must start at age 1");
  for (size_t i = 0; i + 1 < starts_.size(); ++i) {
    TDS_AUDIT_CHECK(starts_[i] < starts_[i + 1],
                    "region boundaries must be strictly increasing");
  }

  // Oldest-to-newest: ids in range, spans partitioning the timeline from
  // the head's start, open bucket last. The head starts at `start_` until a
  // drop removes it, and only a finite horizon drops.
  uint64_t previous = 0;
  Tick expected_start = start_;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const BucketSpan& bucket = buckets_[i];
    TDS_AUDIT_CHECK(bucket.id < next_id_, "bucket id beyond the id allocator");
    // A seal takes a fresh id and a merge keeps the older one, so ids
    // increase oldest-first; lookups and counters rely on that order.
    TDS_AUDIT_CHECK(bucket.id > previous,
                    "bucket ids must increase oldest-first");
    if (i == 0) {
      TDS_AUDIT_CHECK(horizon_ != kInfiniteHorizon ? bucket.start >= start_
                                                   : bucket.start == start_,
                      "head bucket must start at the stream start, or "
                      "after it once buckets drop");
    } else {
      TDS_AUDIT_CHECK(bucket.start == expected_start,
                      "bucket spans must partition the timeline (gap at " +
                          std::to_string(bucket.start) + ")");
    }
    if (i + 1 < buckets_.size()) {
      TDS_AUDIT_CHECK(bucket.end >= bucket.start, "inverted sealed span");
      expected_start = bucket.end + 1;
    } else {
      TDS_AUDIT_CHECK(bucket.start <= now_ + 1,
                      "open bucket starts past the clock");
      TDS_AUDIT_CHECK(bucket.end == std::max(bucket.start, now_),
                      "open bucket does not end at the clock");
    }
    previous = bucket.id;
  }

  // Drop eligibility: the head would have been dropped at the first settled
  // tick where even its newest slot fell past the horizon.
  if (horizon_ != kInfiniteHorizon && buckets_.size() > 1) {
    TDS_AUDIT_CHECK(settled_through_ - buckets_.front().end < horizon_,
                    "head bucket outlived the decay horizon");
  }

  // Weight-based merge condition: merges fire as soon as a sealed pair's
  // combined span fits in one region, so at the settled tick no adjacent
  // sealed pair may be merge-eligible (NextMergeTime returns the earliest
  // T >= settled_through_; eligibility exactly at the settled tick means a
  // merge event was missed).
  for (size_t i = 0; i + 2 < buckets_.size(); ++i) {
    const Tick t =
        NextMergeTime(buckets_[i], buckets_[i + 1], settled_through_);
    TDS_AUDIT_CHECK(t > settled_through_,
                    "adjacent sealed buckets were merge-eligible at the "
                    "settled tick");
  }
  return Status::OK();
}

Status WbmhLayout::EncodeState(Encoder& encoder) const {
  if (!log_.empty()) {
    return Status::FailedPrecondition(
        "op log not trimmed: sync all counters and TrimLog before encoding");
  }
  encoder.PutDouble(epsilon_);
  encoder.PutSigned(start_);
  encoder.PutSigned(now_);
  encoder.PutSigned(settled_through_);
  encoder.PutSigned(next_seal_);
  encoder.PutVarint(next_id_);
  encoder.PutVarint(next_seq_);
  encoder.PutVarint(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const BucketSpan& bucket = buckets_[i];
    encoder.PutVarint(bucket.id);
    encoder.PutSigned(bucket.start);
    // The open bucket is encoded as it was created (end == start); decode
    // stretches it to the clock again.
    encoder.PutSigned(i + 1 < buckets_.size() ? bucket.end : bucket.start);
  }
  return Status::OK();
}

Status WbmhLayout::DecodeState(Decoder& decoder) {
  double epsilon = 0.0;
  int64_t start = 0, now = 0, settled = 0, next_seal = 0;
  uint64_t next_id = 0, next_seq = 0, node_count = 0;
  if (!decoder.GetDouble(&epsilon) || !decoder.GetSigned(&start) ||
      !decoder.GetSigned(&now) || !decoder.GetSigned(&settled) ||
      !decoder.GetSigned(&next_seal) || !decoder.GetVarint(&next_id) ||
      !decoder.GetVarint(&next_seq) || !decoder.GetVarint(&node_count)) {
    return CorruptSnapshot("WBMH layout header");
  }
  if (epsilon != epsilon_ || start != start_) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  if (node_count == 0 || node_count > (1u << 22)) {
    return CorruptSnapshot("WBMH layout empty");
  }
  if (now < start || settled > now || next_seal < start) {
    return CorruptSnapshot("WBMH layout clock");
  }
  now_ = now;
  settled_through_ = settled;
  next_seal_ = next_seal;
  next_id_ = next_id;
  next_seq_ = next_seq;
  log_start_ = next_seq;
  log_.clear();
  buckets_.clear();
  merge_events_ = {};
  Tick expected_start = 0;
  for (uint64_t i = 0; i < node_count; ++i) {
    uint64_t id = 0;
    int64_t node_start = 0, node_end = 0;
    if (!decoder.GetVarint(&id) || !decoder.GetSigned(&node_start) ||
        !decoder.GetSigned(&node_end) || id == 0 || id >= next_id_) {
      return CorruptSnapshot("WBMH layout node");
    }
    if (!buckets_.empty() && id <= buckets_.back().id) {
      return CorruptSnapshot(
          "WBMH layout bucket ids must increase oldest-first");
    }
    // Spans must partition the timeline from the head's start (open bucket
    // last); the audit below pins the head's start itself.
    if (node_end < node_start ||
        (i == 0 ? node_start < start_ : node_start != expected_start)) {
      return CorruptSnapshot("WBMH layout span");
    }
    expected_start = node_end + 1;
    buckets_.push_back(BucketSpan{id, node_start, node_end});
  }
  const BucketSpan& open = buckets_.back();
  if (open.start > now_ + 1 || open.end != open.start) {
    return CorruptSnapshot("WBMH layout open bucket");
  }
  ExtendOpenBucket();
  // Rebuild the (memoryless) merge schedule for every adjacent sealed pair
  // and the drop horizon.
  for (size_t i = 0; i + 2 < buckets_.size(); ++i) SchedulePair(i, now_);
  RefreshNextDrop();
  // A hostile snapshot that passed the field-level checks must still form a
  // structurally valid layout (the audit covers cross-field invariants the
  // per-node checks cannot see, e.g. merge eligibility at the settled tick).
  return RefuseUnaudited(AuditInvariants());
}

uint64_t WbmhLayout::BucketForArrival(Tick t) const {
  for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
    if (it->start <= t) return t <= it->end ? it->id : 0;
  }
  return 0;
}

size_t WbmhLayout::StorageBits() const {
  const double tick_bits = std::ceil(
      std::log2(static_cast<double>(std::max<Tick>(now_, 2)) + 1.0));
  return static_cast<size_t>(2.0 * tick_bits *
                             static_cast<double>(buckets_.size()));
}

const WbmhLayout::Op& WbmhLayout::OpAt(uint64_t seq) const {
  TDS_CHECK_GE(seq, log_start_);
  TDS_CHECK_LT(seq, next_seq_);
  return log_[seq - log_start_];
}

void WbmhLayout::TrimLog(uint64_t upto) {
  while (log_start_ < upto && !log_.empty()) {
    log_.pop_front();
    ++log_start_;
  }
}

}  // namespace tds
