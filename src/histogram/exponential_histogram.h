#ifndef TDS_HISTOGRAM_EXPONENTIAL_HISTOGRAM_H_
#define TDS_HISTOGRAM_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "histogram/flat_store.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/common.h"
#include "util/status.h"

namespace tds {

/// One exponential-histogram bucket as its readers see it.
struct EhBucket {
  Tick end = 0;        ///< Arrival tick of the bucket's most recent item.
  uint64_t count = 0;  ///< Number of unit items aggregated in the bucket.
};

/// The constants of an exponential histogram: the same for every
/// histogram built with one (epsilon, window), so a registry of per-key
/// histograms holds them once and passes them to each EhState.
struct EhParams {
  /// Window size W in ticks; kInfiniteHorizon means never expire.
  Tick window = kInfiniteHorizon;
  /// Max buckets per size class before a merge is forced: ClassBudget.
  uint64_t cap = 0;
  /// Target relative error (0, 1].
  double epsilon = 0.1;

  /// Rejects an epsilon outside (0, 1] or one whose per-class budget
  /// exceeds kMaxClassBudget (ClassBudget returns 0), and a window < 1.
  static StatusOr<EhParams> Create(double epsilon, Tick window);

  bool operator==(const EhParams&) const = default;
};

/// One exponential histogram's state without its constants (EhParams): the
/// bucket block, the clock, the first arrival and the total, 48 bytes.
/// ExponentialHistogram owns one beside its EhParams; a CEH registry keeps
/// one inline in each key's entry. Every method takes the constants it
/// needs; the state never stores them.
///
/// Buckets hold power-of-two counts; per size class at most `cap` buckets
/// are kept, and when a class overflows its two oldest buckets merge into
/// the next class. Each bucket stores only the timestamp of its most recent
/// item; a bucket expires when even that timestamp leaves the window.
class EhState {
 public:
  using Bucket = EhBucket;

  /// Adds `value` unit items at tick `t`. Requires t >= now().
  void Add(const EhParams& params, Tick t, uint64_t value);

  /// Advances the clock (expiring buckets); requires t >= now().
  void AdvanceTo(const EhParams& params, Tick t);

  Tick now() const { return now_; }
  /// Arrival tick of the earliest item ever added, or 0 if none.
  Tick first_arrival() const { return first_arrival_; }
  /// Sum of all live bucket counts (upper bound on the window count).
  uint64_t TotalCount() const { return total_count_; }
  size_t BucketCount() const { return store_.size(); }
  bool Empty() const { return total_count_ == 0; }

  /// Estimate of the count over the full window [now-W+1, now].
  double Estimate(const EhParams& params) const;
  /// Estimate of the count over the window of size w <= W ending at now()
  /// (Lemma 4.1).
  double EstimateWindow(Tick w) const;

  /// Calls f(Bucket) for every live bucket from oldest to newest.
  template <typename F>
  void ForEachBucketOldestFirst(F&& f) const {
    store_.ForEachOldestFirst(
        [&f](Tick end, uint64_t count) { f(Bucket{end, count}); });
  }

  /// Requests the bucket block's first two lines (FlatBucketStore::Prefetch).
  void Prefetch() const { store_.Prefetch(); }

  /// See ExponentialHistogram::StorageBits.
  size_t StorageBits(const EhParams& params) const;

  /// Replays `other`'s buckets into this state; see
  /// ExponentialHistogram::MergeFrom.
  Status MergeFrom(const EhParams& params, const EhState& other);

  /// Snapshot support: the constants' epsilon and window, then the state.
  void EncodeState(const EhParams& params, class Encoder& encoder) const;
  /// Restores onto an empty state; the encoded epsilon and window must be
  /// `params`'.
  Status DecodeState(const EhParams& params, class Decoder& decoder);

  /// See ExponentialHistogram::AuditInvariants.
  Status AuditInvariants(const EhParams& params) const;

 private:
  /// Inserts `count` unit items at tick t into class 0 and cascades.
  void InsertUnits(const EhParams& params, Tick t, uint64_t count);
  /// Expires buckets whose end timestamp has left the window.
  void Expire(const EhParams& params);

  /// Bucket stamps in one block, oldest first; a bucket's stamp is its end
  /// tick and its count is implied by its class.
  FlatBucketStore<Tick> store_;
  Tick now_ = 0;
  Tick first_arrival_ = 0;
  uint64_t total_count_ = 0;
};

/// Exponential Histogram of Datar, Gionis, Indyk & Motwani (paper
/// Section 4.1): a (1 +- epsilon)-approximate count of 1s (or sum of small
/// nonnegative integers) over a sliding window, in O(eps^{-1} log^2 W) bits.
/// It owns one EhState and its EhParams.
///
/// Buckets hold power-of-two counts; per size class at most
/// `cap = ceil(1/eps) + 1` buckets are kept, and when a class overflows
/// its two oldest buckets merge into the next class (the paper's
/// "domination-based" aggregation). Each bucket stores only the timestamp of
/// its most recent item; a bucket expires when even that timestamp leaves
/// the window. The estimate counts expired-straddling mass as half the
/// oldest bucket.
///
/// Lemma 4.1 of the paper: the same structure answers *every* window size
/// w <= W (EstimateWindow), which is what the cascaded general-decay
/// estimator (CEH, Section 4.2) builds on.
///
/// Values v > 1 are inserted as v logical unit items sharing one timestamp.
/// The insertion is performed with per-class digit arithmetic, so the cost
/// is O(cap * log v) rather than O(v).
class ExponentialHistogram {
 public:
  struct Options {
    /// Target relative error (0, 1].
    double epsilon = 0.1;
    /// Window size W in ticks; kInfiniteHorizon means never expire
    /// (used when cascading decay functions with unbounded support).
    Tick window = kInfiniteHorizon;
  };

  using Bucket = EhBucket;

  /// Rejects what EhParams::Create rejects.
  static StatusOr<ExponentialHistogram> Create(const Options& options);

  /// Adds `value` unit items at tick `t`. Requires t >= now().
  void Add(Tick t, uint64_t value) { state_.Add(params_, t, value); }

  /// Advances the clock (expiring buckets); requires t >= now().
  void AdvanceTo(Tick t) { state_.AdvanceTo(params_, t); }

  Tick now() const { return state_.now(); }

  /// Estimate of the count over the full window [now-W+1, now].
  double Estimate() const { return state_.Estimate(params_); }

  /// Estimate of the count over the window of size w <= W ending at now()
  /// (Lemma 4.1).
  double EstimateWindow(Tick w) const { return state_.EstimateWindow(w); }

  /// Sum of all live bucket counts (upper bound on the window count).
  uint64_t TotalCount() const { return state_.TotalCount(); }

  /// Number of live buckets.
  size_t BucketCount() const { return state_.BucketCount(); }

  /// True if no unexpired items remain.
  bool Empty() const { return state_.Empty(); }

  /// Calls f(Bucket) for every live bucket from oldest to newest, as one
  /// linear scan of the bucket store.
  template <typename F>
  void ForEachBucketOldestFirst(F&& f) const {
    state_.ForEachBucketOldestFirst(std::forward<F>(f));
  }

  /// Snapshot of buckets, oldest first (test/inspection convenience).
  std::vector<Bucket> Buckets() const;

  /// Arrival tick of the earliest item ever added, or 0 if none.
  Tick first_arrival() const { return state_.first_arrival(); }

  /// Storage accounting under the paper's bit metric: each bucket is charged
  /// a timestamp of ceil(log2(N+1)) bits plus a size exponent of
  /// ceil(log2(log2(maxCount)+1)) bits, where N = min(elapsed, W).
  /// One extra timestamp register is charged for the clock.
  size_t StorageBits() const { return state_.StorageBits(params_); }

  double epsilon() const { return params_.epsilon; }
  Tick window() const { return params_.window; }

  /// Merges another histogram over a *disjoint* substream of the same
  /// window into this one (the distributed sliding-window setting of
  /// Gibbons & Tirthapura, cited in the paper's Section 1.2: per-site
  /// summaries combined at a coordinator). Every bucket of `other` is
  /// replayed as a batch insert at its end timestamp, so the result is a
  /// valid canonical EH whose additional error is bounded by the *input*
  /// histogram's own bucket spread: the combined estimate stays within
  /// ~(eps_this + eps_other) of the union stream's window count.
  /// Requires matching epsilon and window. The clocks may differ; the
  /// merged clock is the max.
  Status MergeFrom(const ExponentialHistogram& other);

  /// Snapshot support: serializes options and full bucket state.
  void EncodeState(class Encoder& encoder) const {
    state_.EncodeState(params_, encoder);
  }
  /// Restores onto a freshly-created histogram; the encoded options must
  /// match this instance's options.
  Status DecodeState(class Decoder& decoder);

  /// Verifies every structural invariant (see util/audit.h): the canonical
  /// ordering — walking classes newest-to-oldest class index, all bucket end
  /// timestamps are globally non-decreasing oldest-to-newest — the per-class
  /// `cap = ceil(1/eps) + 1` budget (ClassBudget, so a tiny epsilon fails
  /// here too), the store's block invariants (FlatBucketStore::
  /// AuditInvariants), timestamps within [first_arrival, now], no bucket
  /// outside a finite window, and `total_count_` equal to the
  /// (non-overflowing) sum of the implied 2^c bucket counts.
  Status AuditInvariants() const { return state_.AuditInvariants(params_); }

 private:
  explicit ExponentialHistogram(const EhParams& params) : params_(params) {}

  EhParams params_;
  EhState state_;
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_EXPONENTIAL_HISTOGRAM_H_
