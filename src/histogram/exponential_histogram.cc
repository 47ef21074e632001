#include "histogram/exponential_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/audit.h"

namespace tds {

// Per-class bucket budget k = ceil(1/eps) + 1 (Datar et al.): with at
// least cap-1 buckets per smaller class, the straddling bucket's half-count
// correction is at most an eps fraction of the window count, including the
// worst case of a size-2 straddler.
StatusOr<EhParams> EhParams::Create(double epsilon, Tick window) {
  const uint64_t cap = ClassBudget(epsilon);
  if (cap == 0) {
    return Status::InvalidArgument(
        "EH requires epsilon in (0, 1] with a per-class budget "
        "ceil(1/epsilon) + 1 of at most " +
        std::to_string(kMaxClassBudget));
  }
  if (window < 1) {
    return Status::InvalidArgument("EH requires window >= 1");
  }
  return EhParams{window, cap, epsilon};
}

StatusOr<ExponentialHistogram> ExponentialHistogram::Create(
    const Options& options) {
  auto params = EhParams::Create(options.epsilon, options.window);
  if (!params.ok()) return params.status();
  return ExponentialHistogram(params.value());
}

void EhState::AdvanceTo(const EhParams& params, Tick t) {
  TDS_CHECK_GE(t, now_);
  now_ = t;
  Expire(params);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void EhState::Add(const EhParams& params, Tick t, uint64_t value) {
  TDS_CHECK_GE(t, now_);
  now_ = t;
  // Expire BEFORE inserting: the merge cascade then only ever pairs live
  // buckets, and — since a carry takes the newer partner's timestamp — can
  // never produce a bucket that is itself already expired, so no trailing
  // sweep is needed. This ordering is also what makes coalescing same-tick
  // items into one Add identical to adding them one at a time: with
  // insertion first, the expiry interleaved between two adds could remove a
  // straddling bucket that the coalesced cascade would instead have merged.
  Expire(params);
  if (value != 0) {
    if (first_arrival_ == 0) first_arrival_ = t;
    total_count_ += value;
    InsertUnits(params, t, value);
  }
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void EhState::InsertUnits(const EhParams& params, Tick t,
                          uint64_t incoming_units) {
  // Sequential-insertion digit arithmetic, run by the store as a suffix
  // compaction sweep; a merged bucket keeps the newer partner's end tick.
  store_.InsertUnits(incoming_units, t, params.cap,
                     [](Tick /*older*/, Tick newer) { return newer; });
}

void EhState::Expire(const EhParams& params) {
  if (params.window == kInfiniteHorizon || total_count_ == 0) return;
  // Arrivals before the cutoff have age > W.
  const Tick cutoff = now_ - params.window + 1;
  total_count_ -=
      store_.ExpireOldest([cutoff](Tick end) { return end < cutoff; });
}

double EhState::Estimate(const EhParams& params) const {
  return EstimateWindow(params.window == kInfiniteHorizon
                            ? (first_arrival_ == 0
                                   ? Tick{1}
                                   : now_ - first_arrival_ + 1)
                            : params.window);
}

double EhState::EstimateWindow(Tick w) const {
  TDS_CHECK_GE(w, 1);
  if (total_count_ == 0) return 0.0;
  const Tick cutoff = now_ - w + 1;
  double sum = 0.0;
  bool found_oldest_kept = false;
  double oldest_kept_count = 0.0;
  bool any_skipped = false;
  ForEachBucketOldestFirst([&](const Bucket& b) {
    if (b.end < cutoff) {
      any_skipped = true;
      return;
    }
    if (!found_oldest_kept) {
      found_oldest_kept = true;
      oldest_kept_count = static_cast<double>(b.count);
    }
    sum += static_cast<double>(b.count);
  });
  if (!found_oldest_kept) return 0.0;
  // The oldest kept bucket straddles the window boundary unless the entire
  // stream lies inside the window; count half of it in that case. A size-1
  // bucket never straddles: its single item sits exactly at the stored
  // timestamp, which is inside the window.
  if (oldest_kept_count > 1.5 && (any_skipped || first_arrival_ < cutoff)) {
    sum -= oldest_kept_count / 2.0;
  }
  return sum;
}

std::vector<ExponentialHistogram::Bucket> ExponentialHistogram::Buckets()
    const {
  std::vector<Bucket> out;
  out.reserve(BucketCount());
  ForEachBucketOldestFirst([&](const Bucket& b) { out.push_back(b); });
  return out;
}

Status ExponentialHistogram::MergeFrom(const ExponentialHistogram& other) {
  if (other.params_ != params_) {
    return Status::InvalidArgument(
        "cannot merge histograms with different options");
  }
  const Status status = state_.MergeFrom(params_, other.state_);
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

Status EhState::MergeFrom(const EhParams& params, const EhState& other) {
  // Gather both bucket lists and rebuild canonically. A bucket only
  // records its end timestamp, but its items are spread back to the older
  // neighbor's end; re-stamping everything at one point would bias the
  // union estimate (newer -> systematic overweight under decay, older ->
  // spurious expiry under sliding windows). Instead each input bucket is
  // split into up to kMergeChunks pseudo-batches spread evenly across its
  // reconstructed span (the last chunk exactly at the recorded end, so
  // expiry semantics stay end-anchored), preserving the time distribution
  // to within span/kMergeChunks.
  constexpr uint64_t kMergeChunks = 8;
  std::vector<Bucket> combined;
  combined.reserve(kMergeChunks * (BucketCount() + other.BucketCount()));
  auto gather = [&combined, &params](const EhState& source) {
    // Live buckets contain only in-window items, but the reconstructed
    // span of the oldest one reaches back to the first arrival (older
    // buckets expired wholesale); clamp to the window so chunks are not
    // spuriously expired on re-insertion.
    Tick floor = source.first_arrival();
    if (params.window != kInfiniteHorizon) {
      floor = std::max(floor, source.now() - params.window + 1);
    }
    Tick previous_end = floor;
    source.ForEachBucketOldestFirst([&](const Bucket& b) {
      // Clamp to b.end: buckets in different classes may share an end
      // timestamp (one multi-digit Add), making previous_end overshoot —
      // an unclamped start would yield span -1 and zero chunks, silently
      // dropping the bucket's whole count.
      const Tick start = std::min(std::max(previous_end, floor), b.end);
      previous_end = b.end + 1;
      const Tick span = b.end - start;
      const uint64_t chunks =
          std::min<uint64_t>({kMergeChunks, b.count,
                              static_cast<uint64_t>(span) + 1});
      uint64_t remaining = b.count;
      for (uint64_t c = 0; c < chunks; ++c) {
        const uint64_t piece =
            c + 1 == chunks ? remaining : b.count / chunks;
        remaining -= piece;
        // Chunk c covers the c-th slice of [start, end]; stamp it at the
        // slice end so the newest chunk sits exactly at b.end.
        const Tick stamp =
            start + span * static_cast<Tick>(c + 1) /
                        static_cast<Tick>(chunks);
        combined.push_back(Bucket{stamp, piece});
      }
    });
  };
  gather(*this);
  gather(other);
  std::stable_sort(
      combined.begin(), combined.end(),
      [](const Bucket& a, const Bucket& b) { return a.end < b.end; });

  const Tick merged_now = std::max(now_, other.now_);
  Tick merged_first = 0;
  if (first_arrival_ != 0 && other.first_arrival_ != 0) {
    merged_first = std::min(first_arrival_, other.first_arrival_);
  } else {
    merged_first = first_arrival_ != 0 ? first_arrival_
                                       : other.first_arrival_;
  }

  store_.Clear();
  total_count_ = 0;
  now_ = 0;
  first_arrival_ = 0;
  for (const Bucket& b : combined) {
    Add(params, b.end, b.count);
  }
  now_ = merged_now;
  first_arrival_ = merged_first;
  Expire(params);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
  return Status::OK();
}

void EhState::EncodeState(const EhParams& params, Encoder& encoder) const {
  encoder.PutDouble(params.epsilon);
  encoder.PutSigned(params.window);
  encoder.PutSigned(now_);
  encoder.PutSigned(first_arrival_);
  encoder.PutVarint(total_count_);
  // Wire order: every class, emptied ones included, in ascending class
  // order; each class's buckets oldest first as end-tick deltas.
  encoder.PutVarint(store_.num_classes());
  store_.ForEachSegmentAscendingClass([&](size_t c, const auto& segment) {
    encoder.PutVarint(segment.size());
    Tick previous = 0;
    for (size_t k = 0; k < segment.size(); ++k) {
      const Tick end = segment[k];
      encoder.PutVarint(static_cast<uint64_t>(end - previous));
      previous = end;
      encoder.PutVarint(uint64_t{1} << c);
    }
  });
}

Status ExponentialHistogram::DecodeState(Decoder& decoder) {
  const Status status = state_.DecodeState(params_, decoder);
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

Status EhState::DecodeState(const EhParams& params, Decoder& decoder) {
  double epsilon = 0.0;
  int64_t window = 0, now = 0, first_arrival = 0;
  uint64_t total = 0, class_count = 0;
  if (!decoder.GetDouble(&epsilon) || !decoder.GetSigned(&window) ||
      !decoder.GetSigned(&now) || !decoder.GetSigned(&first_arrival) ||
      !decoder.GetVarint(&total) || !decoder.GetVarint(&class_count)) {
    return CorruptSnapshot("EH header");
  }
  if (epsilon != params.epsilon || window != params.window) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  if (class_count > 64) return CorruptSnapshot("EH class count");
  if (now < 0 || first_arrival < 0 || first_arrival > now) {
    return CorruptSnapshot("EH clock");
  }
  now_ = now;
  first_arrival_ = first_arrival;
  total_count_ = total;
  // The store keeps no counts: a class-c bucket holds 2^c units.
  const char* corrupt = nullptr;
  const bool parsed = store_.AssignFromAscendingClasses(
      class_count, [&](size_t c, std::vector<Tick>& out) {
        uint64_t buckets = 0;
        // cap <= kMaxClassBudget, so the bound cannot overflow and any
        // class it admits fits the store's counter.
        if (!decoder.GetVarint(&buckets) || buckets > 2 * params.cap + 2) {
          corrupt = "EH class size";
          return false;
        }
        Tick previous = 0;
        for (uint64_t i = 0; i < buckets; ++i) {
          uint64_t delta = 0, count = 0;
          if (!decoder.GetVarint(&delta) || !decoder.GetVarint(&count) ||
              count != uint64_t{1} << c) {
            corrupt = "EH bucket";
            return false;
          }
          previous += static_cast<Tick>(delta);
          out.push_back(previous);
        }
        return true;
      });
  if (!parsed) return CorruptSnapshot(corrupt);
  // Structural validation (hostile snapshots must not yield a structure
  // that later trips internal CHECKs) is exactly the audit protocol: end
  // timestamps within [first_arrival, now] non-decreasing in canonical
  // order, the per-class cap, and the count checksum.
  return RefuseUnaudited(AuditInvariants(params));
}

Status EhState::AuditInvariants(const EhParams& params) const {
  const uint64_t cap = params.cap;
  TDS_AUDIT_CHECK(cap != 0 && cap == ClassBudget(params.epsilon),
                  "per-class budget must be ceil(1/eps) + 1, at most " +
                      std::to_string(kMaxClassBudget));
  const Status store = store_.AuditInvariants();
  if (!store.ok()) return store;
  TDS_AUDIT_CHECK(first_arrival_ >= 0 && now_ >= first_arrival_,
                  "clock precedes first arrival");
  if (first_arrival_ == 0) {
    TDS_AUDIT_CHECK(total_count_ == 0 && BucketCount() == 0,
                    "buckets present before any arrival");
  }
  const Tick cutoff = params.window == kInfiniteHorizon
                          ? std::numeric_limits<Tick>::min()
                          : now_ - params.window + 1;
  for (size_t c = 0; c < store_.num_classes(); ++c) {
    const size_t segment = store_.class_size(c);
    TDS_AUDIT_CHECK(segment <= cap,
                    "class " + std::to_string(c) + " holds " +
                        std::to_string(segment) + " buckets, cap " +
                        std::to_string(cap));
  }
  uint64_t checksum = 0;
  Tick previous_end = std::numeric_limits<Tick>::min();
  const char* violation = nullptr;
  store_.ForEachOldestFirst([&](Tick end, uint64_t count) {
    // Canonical EH ordering: walking classes oldest-to-newest, end
    // timestamps never decrease (equal stamps are legal — one batch
    // insert spawns buckets in several classes).
    if (violation != nullptr) return;
    if (end < previous_end) {
      violation = "canonical ordering violated";
    } else if (end < first_arrival_ || end > now_) {
      violation = "bucket timestamp outside [first_arrival, now]";
    } else if (end < cutoff) {
      violation = "expired bucket retained";
    } else if (__builtin_add_overflow(checksum, count, &checksum)) {
      // A hostile snapshot can hold counts whose sum wraps back to a
      // plausible total; an overflowing sum is itself a violation.
      violation = "bucket counts overflow the total";
    }
    previous_end = end;
  });
  TDS_AUDIT_CHECK(violation == nullptr, violation);
  TDS_AUDIT_CHECK(checksum == total_count_,
                  "total_count_ " + std::to_string(total_count_) +
                      " != bucket sum " + std::to_string(checksum));
  return Status::OK();
}

size_t EhState::StorageBits(const EhParams& params) const {
  const Tick elapsed =
      first_arrival_ == 0 ? Tick{1} : now_ - first_arrival_ + 1;
  const Tick n_eff = params.window == kInfiniteHorizon
                         ? elapsed
                         : std::min(elapsed, params.window);
  const double ts_bits =
      std::ceil(std::log2(static_cast<double>(n_eff) + 1.0));
  const double count_log =
      std::log2(static_cast<double>(std::max<uint64_t>(total_count_, 2)));
  const double exp_bits = std::ceil(std::log2(count_log + 1.0));
  return static_cast<size_t>(
      static_cast<double>(BucketCount()) * (ts_bits + exp_bits) + ts_bits);
}

}  // namespace tds
