#ifndef TDS_HISTOGRAM_WBMH_LAYOUT_H_
#define TDS_HISTOGRAM_WBMH_LAYOUT_H_

#include <cstdint>
#include <deque>
#include <queue>
#include <span>
#include <vector>

#include "decay/decay_function.h"
#include "util/common.h"
#include "util/status.h"

namespace tds {

/// Deterministic bucket-boundary engine of the Weight-Based Merging
/// Histogram (paper Section 5).
///
/// The age axis is partitioned into *regions* [b_i, b_{i+1}-1], where b_1 is
/// the maximum b with (1+eps) * g(b-1) >= g(1) and b_{i+1} the maximum b
/// with (1+eps) * g(b-1) >= g(b_i): all ages within one region have weights
/// within a (1+eps) factor of each other. Buckets evolve by a process that
/// is *independent of the stream*:
///
///  * the open bucket is sealed every `b_1 - 1` ticks (in the paper's worked
///    example, g = 1/x^2 with 1+eps = 5, the newest bucket alternates
///    between time-widths 1 and 2);
///  * two adjacent sealed buckets merge as soon as their combined age span
///    fits inside a single region;
///  * a bucket is dropped once even its newest item slot is older than the
///    decay horizon N(g).
///
/// Because boundaries depend only on (g, eps, T), one layout can be shared
/// by arbitrarily many per-stream counters — the paper's storage argument:
/// boundary values need not be stored per stream. The layout publishes a log
/// of structural operations (seal / merge / drop) with monotone sequence
/// numbers, and each WbmhState replays the suffix it has not yet applied.
/// Buckets are identified by stable 64-bit ids that increase oldest-first:
/// a seal takes a fresh id, a merge keeps the older id, and a drop removes
/// the oldest bucket. So one id-ordered array holds the buckets in layout
/// order; a merge erases one element of it, which is cheap because the
/// array holds O(log_{1+eps} D(g)) buckets.
///
/// Time costs are amortized O(1) per elapsed tick: advancing over a gap of
/// D ticks performs O(D / b_1) seal and merge events.
class WbmhLayout {
 public:
  struct Options {
    DecayPtr decay;
    /// Bucketing precision: items in one bucket have weights within 1+eps.
    double epsilon = 0.5;
    /// First tick of the stream's life.
    Tick start = 1;
  };

  enum class OpKind : uint8_t {
    kSeal,   ///< Open bucket sealed; a new open bucket `a` was appended.
    kMerge,  ///< Bucket `b` merged into its older neighbor `a`.
    kDrop,   ///< Bucket `a` (the oldest) fell past the horizon; removed.
  };

  struct Op {
    OpKind kind;
    uint64_t a = 0;
    uint64_t b = 0;
  };

  struct BucketSpan {
    uint64_t id = 0;
    Tick start = 0;  ///< Oldest item slot (arrival tick) covered.
    /// Newest item slot covered. The open bucket's span extends with the
    /// clock; a just-created open bucket may still lie one tick in the
    /// future (start == end).
    Tick end = 0;
    bool operator==(const BucketSpan&) const = default;
  };

  static StatusOr<WbmhLayout> Create(const Options& options);

  /// Advances to tick t (>= now()): processes end-of-tick events (seal /
  /// merge / drop) for every tick *before* t, so that arrivals at t can
  /// still be routed into the bucket covering slot t.
  void AdvanceTo(Tick t);

  /// Runs the end-of-tick events of the current tick as well (used to
  /// observe the exact post-seal configuration the paper's example prints).
  void Settle();

  Tick now() const { return now_; }
  Tick start() const { return start_; }
  const DecayPtr& decay() const { return decay_; }
  double epsilon() const { return epsilon_; }

  /// Bucket spans in id order, which is oldest first; the last one is
  /// open. Valid until the next mutation.
  std::span<const BucketSpan> Spans() const { return buckets_; }

  /// Id of the bucket whose span contains arrival tick t (searching from
  /// the newest side; arrivals are expected near `now`). 0 if none.
  uint64_t BucketForArrival(Tick t) const;

  size_t BucketCount() const { return buckets_.size(); }

  /// Boundary storage under the paper's metric: two ceil(log2(T+1))-bit
  /// ticks per bucket. Charged once however many counters share the layout.
  size_t StorageBits() const;

  /// Total ops emitted so far; ops are numbered [0, OpSeq()).
  uint64_t OpSeq() const { return next_seq_; }

  /// First op still retained in the log.
  uint64_t LogStart() const { return log_start_; }

  /// Op with sequence number `seq` (must be in [LogStart(), OpSeq())).
  const Op& OpAt(uint64_t seq) const;

  /// Discards ops with seq < upto. Counters must have applied them already.
  void TrimLog(uint64_t upto);

  /// Region index of an age (0-based; region 0 starts at age 1), extending
  /// boundaries on demand. Ages past the horizon return -1.
  int RegionIndex(Tick age);

  /// Region start ages computed so far: starts[0] = 1, starts[1] = b_1, ...
  const std::vector<Tick>& RegionStarts() const { return starts_; }

  /// Number of regions needed to cover ages up to n:
  /// ceil(log_{1+eps} D(g)) by the paper's bound.
  int RegionCountUpTo(Tick n);

  /// Open-bucket cycle width: b_1 - 1.
  Tick SealPeriod() const { return seal_period_; }

  /// Snapshot support. The op log must be fully trimmed first (sync every
  /// counter, then TrimLog(OpSeq())): snapshots carry no log, so counters
  /// restored alongside must already be at the layout's op sequence.
  Status EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

  /// Verifies every structural invariant (see util/audit.h): bucket spans
  /// partition [head start, ...] (the head starts at `start` until a finite
  /// horizon drops it) with in-range ids that strictly increase
  /// oldest-first, the open bucket ends at the clock, op-log window
  /// accounting, strictly increasing region boundaries, horizon-based drop
  /// eligibility of the head, and the weight-based merge condition — no
  /// adjacent sealed pair may still be merge-eligible at the last settled
  /// tick. Non-const only because the merge check can extend the memoized
  /// region table (derived configuration, not stream state).
  Status AuditInvariants();

 private:
  struct PairEvent {
    Tick time;
    uint64_t left;
    uint64_t right;
    bool operator>(const PairEvent& other) const { return time > other.time; }
  };

  explicit WbmhLayout(const Options& options);

  /// Extends starts_ until it covers `age` or the horizon/search cap.
  void ExtendBoundaries(Tick age);

  /// Earliest T >= t0 at which buckets (left, right) could merge, or, when
  /// the region-scan budget runs out first, the first T > t0 the scan did
  /// not reach (every earlier T is ineligible; ask again then);
  /// kInfiniteHorizon if no T qualifies.
  Tick NextMergeTime(const BucketSpan& left, const BucketSpan& right,
                     Tick t0);

  /// Runs all end-of-tick events at tick e (seal first, then merges, then
  /// drops); requires e to be the earliest pending event time.
  void ProcessTick(Tick e);

  Tick NextEventTime() const;

  /// Index of bucket `id` in buckets_, or buckets_.size() if absent.
  size_t IndexOf(uint64_t id) const;

  void Emit(Op op);
  void DoSeal(Tick e);
  /// Merges the bucket after `left` (both sealed) into buckets_[left].
  void DoMerge(size_t left, Tick e);
  void DoDrops(Tick e);
  /// Schedules the pair (buckets_[left], buckets_[left + 1]).
  void SchedulePair(size_t left, Tick t0);
  void RefreshNextDrop();
  /// Stretches the open bucket's span to the clock.
  void ExtendOpenBucket();

  DecayPtr decay_;
  double epsilon_;
  Tick start_;
  Tick seal_period_ = 1;
  Tick horizon_ = kInfiniteHorizon;

  Tick now_ = 0;
  Tick next_seal_ = 0;
  Tick next_drop_ = kInfiniteHorizon;
  Tick settled_through_ = 0;  ///< End-of-tick work done through this tick.

  std::vector<Tick> starts_;   ///< Region start ages; starts_[0] == 1.
  bool starts_capped_ = false;

  std::vector<BucketSpan> buckets_;  ///< Id order; the open bucket last.
  uint64_t next_id_ = 1;

  std::priority_queue<PairEvent, std::vector<PairEvent>,
                      std::greater<PairEvent>>
      merge_events_;

  std::deque<Op> log_;
  uint64_t next_seq_ = 0;
  uint64_t log_start_ = 0;
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_WBMH_LAYOUT_H_
