#include "histogram/wbmh_layout.h"

#include <algorithm>
#include <string>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {

namespace {
/// Boundary search cap for decays that never (or barely) decay: a region
/// whose end would exceed this is treated as unbounded.
constexpr Tick kMaxBoundary = Tick{1} << 40;
/// How many regions ahead NextMergeTime scans before giving up. Missing a
/// merge only costs storage (extra buckets), never accuracy; for decays
/// where region widths grow (the WBMH-admissible families of interest,
/// e.g. POLYD) the scan succeeds within a few regions.
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
  const uint64_t id = next_id_++;
  nodes_[id] = Node{start_, start_, 0, 0};
  head_ = tail_ = id;
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

Tick WbmhLayout::NextMergeTime(const Node& left, const Node& right, Tick t0) {
  // Merged span would cover slots [left.start, right.end]; at time T its
  // ages run lo(T) .. lo(T)+L with lo(T) = T - right.end + 1. The pair can
  // merge at the first T >= t0 where that whole range fits in one region.
  const Tick t_min = std::max(t0, right.end);
  const Tick lo0 = t_min - right.end + 1;
  int r = RegionIndex(lo0);
  if (r < 0) return kInfiniteHorizon;  // already past the horizon
  const Tick span = right.end - left.start;
  for (int iter = 0; iter < kRegionScanBudget; ++iter, ++r) {
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

void WbmhLayout::SchedulePair(uint64_t left, uint64_t right, Tick t0) {
  auto left_it = nodes_.find(left);
  auto right_it = nodes_.find(right);
  if (left_it == nodes_.end() || right_it == nodes_.end()) return;
  const Tick t = NextMergeTime(left_it->second, right_it->second, t0);
  if (t != kInfiniteHorizon) merge_events_.push(PairEvent{t, left, right});
}

void WbmhLayout::DoSeal(Tick e) {
  Node& open = nodes_[tail_];
  open.end = e;  // seal arithmetic guarantees full width
  const uint64_t new_id = next_id_++;
  const uint64_t sealed = tail_;
  nodes_[new_id] = Node{e + 1, e + 1, sealed, 0};
  nodes_[sealed].next = new_id;
  tail_ = new_id;
  Emit(Op{OpKind::kSeal, new_id, 0});
  next_seal_ += seal_period_;
  const uint64_t prev = nodes_[sealed].prev;
  if (prev != 0) SchedulePair(prev, sealed, e);
}

void WbmhLayout::DoMerge(uint64_t left, uint64_t right, Tick e) {
  Node& ln = nodes_[left];
  const Node rn = nodes_[right];
  TDS_CHECK_NE(right, tail_);
  ln.end = rn.end;
  ln.next = rn.next;
  TDS_CHECK_NE(rn.next, 0u);
  nodes_[rn.next].prev = left;
  nodes_.erase(right);
  Emit(Op{OpKind::kMerge, left, right});
  if (ln.prev != 0) SchedulePair(ln.prev, left, e);
  if (ln.next != 0 && ln.next != tail_) SchedulePair(left, ln.next, e);
}

void WbmhLayout::DoDrops(Tick e) {
  if (horizon_ == kInfiniteHorizon) return;
  while (head_ != 0 && head_ != tail_) {
    const Node& h = nodes_[head_];
    if (e < horizon_ + h.end) break;  // newest slot age == horizon+1 at drop
    const uint64_t old = head_;
    head_ = h.next;
    nodes_[head_].prev = 0;
    nodes_.erase(old);
    Emit(Op{OpKind::kDrop, old, 0});
  }
}

void WbmhLayout::RefreshNextDrop() {
  if (horizon_ == kInfiniteHorizon || head_ == tail_) {
    next_drop_ = kInfiniteHorizon;
    return;
  }
  next_drop_ = horizon_ + nodes_[head_].end;
}

void WbmhLayout::ProcessTick(Tick e) {
  if (e == next_seal_) DoSeal(e);
  while (!merge_events_.empty() && merge_events_.top().time <= e) {
    const PairEvent ev = merge_events_.top();
    merge_events_.pop();
    auto left_it = nodes_.find(ev.left);
    if (left_it == nodes_.end()) continue;
    if (left_it->second.next != ev.right) continue;
    if (ev.right == tail_) continue;
    const Tick t = NextMergeTime(left_it->second, nodes_.at(ev.right), e);
    if (t <= e) {
      DoMerge(ev.left, ev.right, e);
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
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhLayout::Settle() {
  while (true) {
    const Tick e = NextEventTime();
    if (e > now_) break;
    ProcessTick(e);
  }
  settled_through_ = now_;
  TDS_AUDIT_MUTATION(AuditInvariants());
}

Status WbmhLayout::AuditInvariants() {
  TDS_AUDIT_CHECK(!nodes_.empty() && head_ != 0 && tail_ != 0,
                  "the layout always holds an open bucket");
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

  // Walk the bucket list oldest-to-newest: ids in range, links consistent,
  // spans partitioning the timeline from the head's start, open bucket last.
  // The head starts at `start_` until a drop removes it, and only a finite
  // horizon drops.
  size_t visited = 0;
  uint64_t previous = 0;
  Tick expected_start = start_;
  for (uint64_t id = head_; id != 0;) {
    const auto it = nodes_.find(id);
    TDS_AUDIT_CHECK(it != nodes_.end(), "dangling bucket link");
    const Node& node = it->second;
    TDS_AUDIT_CHECK(++visited <= nodes_.size(), "cycle in the bucket list");
    TDS_AUDIT_CHECK(id < next_id_, "bucket id beyond the id allocator");
    // A seal takes a fresh id and a merge keeps the older one, so ids
    // increase oldest-first; counters keep their cells in that order.
    TDS_AUDIT_CHECK(id > previous, "bucket ids must increase oldest-first");
    TDS_AUDIT_CHECK(node.prev == previous, "prev link mismatch");
    if (previous == 0) {
      TDS_AUDIT_CHECK(horizon_ != kInfiniteHorizon ? node.start >= start_
                                                   : node.start == start_,
                      "head bucket must start at the stream start, or "
                      "after it once buckets drop");
    } else {
      TDS_AUDIT_CHECK(node.start == expected_start,
                      "bucket spans must partition the timeline (gap at " +
                          std::to_string(node.start) + ")");
    }
    if (node.next != 0) {
      TDS_AUDIT_CHECK(node.end >= node.start, "inverted sealed span");
      expected_start = node.end + 1;
    } else {
      TDS_AUDIT_CHECK(id == tail_, "open bucket must be the tail");
      TDS_AUDIT_CHECK(node.start <= now_ + 1,
                      "open bucket starts past the clock");
    }
    previous = id;
    id = node.next;
  }
  TDS_AUDIT_CHECK(visited == nodes_.size(), "orphaned bucket nodes");

  // Drop eligibility: the head would have been dropped at the first settled
  // tick where even its newest slot fell past the horizon.
  if (horizon_ != kInfiniteHorizon && head_ != tail_) {
    TDS_AUDIT_CHECK(settled_through_ - nodes_.at(head_).end < horizon_,
                    "head bucket outlived the decay horizon");
  }

  // Weight-based merge condition: merges fire as soon as a sealed pair's
  // combined span fits in one region, so at the settled tick no adjacent
  // sealed pair may be merge-eligible (NextMergeTime returns the earliest
  // T >= settled_through_; eligibility exactly at the settled tick means a
  // merge event was missed).
  for (uint64_t id = head_; id != 0; id = nodes_.at(id).next) {
    const uint64_t next = nodes_.at(id).next;
    if (next == 0 || next == tail_) continue;
    const Tick t =
        NextMergeTime(nodes_.at(id), nodes_.at(next), settled_through_);
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
  encoder.PutVarint(nodes_.size());
  for (uint64_t id = head_; id != 0;) {
    const Node& node = nodes_.at(id);
    encoder.PutVarint(id);
    encoder.PutSigned(node.start);
    encoder.PutSigned(node.end);
    id = node.next;
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
  nodes_.clear();
  merge_events_ = {};
  head_ = tail_ = 0;
  uint64_t previous = 0;
  Tick expected_start = 0;
  for (uint64_t i = 0; i < node_count; ++i) {
    uint64_t id = 0;
    int64_t node_start = 0, node_end = 0;
    if (!decoder.GetVarint(&id) || !decoder.GetSigned(&node_start) ||
        !decoder.GetSigned(&node_end) || id == 0 || id >= next_id_ ||
        nodes_.contains(id)) {
      return CorruptSnapshot("WBMH layout node");
    }
    // Spans must partition the timeline from the head's start (open bucket
    // last); the audit below pins the head's start itself.
    if (node_end < node_start ||
        (i == 0 ? node_start < start_ : node_start != expected_start)) {
      return CorruptSnapshot("WBMH layout span");
    }
    expected_start = node_end + 1;
    nodes_[id] = Node{node_start, node_end, previous, 0};
    if (previous != 0) {
      nodes_[previous].next = id;
    } else {
      head_ = id;
    }
    previous = id;
  }
  tail_ = previous;
  if (nodes_.at(tail_).start > now_ + 1) {
    return CorruptSnapshot("WBMH layout open bucket");
  }
  // Rebuild the (memoryless) merge schedule for every adjacent sealed pair
  // and the drop horizon.
  for (uint64_t id = head_; id != 0; id = nodes_.at(id).next) {
    const uint64_t next = nodes_.at(id).next;
    if (next != 0 && next != tail_) SchedulePair(id, next, now_);
  }
  RefreshNextDrop();
  // A hostile snapshot that passed the field-level checks must still form a
  // structurally valid layout (the audit covers cross-field invariants the
  // per-node checks cannot see, e.g. merge eligibility at the settled tick).
  const Status audit = AuditInvariants();
  if (!audit.ok()) {
    return Status::InvalidArgument("corrupt snapshot: " + audit.message());
  }
  return Status::OK();
}

std::vector<WbmhLayout::BucketSpan> WbmhLayout::Spans() const {
  std::vector<BucketSpan> spans;
  spans.reserve(nodes_.size());
  ForEachSpanOldestFirst([&](const BucketSpan& s) { spans.push_back(s); });
  return spans;
}

uint64_t WbmhLayout::BucketForArrival(Tick t) const {
  for (uint64_t id = tail_; id != 0;) {
    const Node& node = nodes_.at(id);
    if (node.start <= t) {
      const Tick end = id == tail_ ? std::max(node.start, now_) : node.end;
      return t <= end ? id : 0;
    }
    id = node.prev;
  }
  return 0;
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
