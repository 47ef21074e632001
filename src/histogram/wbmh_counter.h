#ifndef TDS_HISTOGRAM_WBMH_COUNTER_H_
#define TDS_HISTOGRAM_WBMH_COUNTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "histogram/wbmh_layout.h"
#include "stream/stream.h"
#include "util/rounded_counter.h"
#include "util/status.h"

namespace tds {

/// Per-stream state of a Weight-Based Merging Histogram (paper Section 5):
/// one (approximate) count per layout bucket that has received items, in a
/// single vector sorted by the layout's bucket id. Boundaries live in the
/// shared WbmhLayout; this object stores only counts, which is the paper's
/// point — for 100M customer streams the boundary process is amortized
/// across all of them.
///
/// Layout ids only ever increase oldest-first (a seal takes a fresh id, a
/// merge keeps the older id, a drop removes the oldest bucket), so id order
/// is layout order: a merge folds a cell into its predecessor, a drop pops
/// the front, an arrival almost always lands on the back, and a read is one
/// merge-join of the cells with the layout's spans.
///
/// Counts are held in RoundedCounter registers of ~log(1/eps) significant
/// bits. Each merge re-rounds once; tracking the merge level l and widening
/// the mantissa by 2*log2(l) bits implements the paper's beta_i = eps/i^2
/// schedule, so the total multiplicative drift stays below (1 + eps) without
/// knowing N in advance.
class WbmhCounter {
 public:
  struct Options {
    /// Count-rounding precision: accumulated rounding drift stays below
    /// (1 + count_epsilon). Zero or negative disables rounding (exact
    /// counts; the CEH-vs-WBMH ablation uses this).
    double count_epsilon = 0.0;
  };

  WbmhCounter(std::shared_ptr<WbmhLayout> layout, const Options& options);

  /// Adds `value` unit items arriving at tick t. Advances the shared layout
  /// to t and replays any pending structural ops first.
  void Add(Tick t, uint64_t value);

  /// Batch of tick-sorted items: the layout advance / op replay / bucket
  /// lookup run once per *distinct* tick while counts are still added
  /// per item (RoundedCounter rounds after every Add, so summing a run
  /// first would change the register). Bit-identical to per-item Add.
  void AddBatch(std::span<const StreamItem> items);

  /// Replays structural ops up to the layout's current sequence number
  /// without adding data (call before WbmhLayout::TrimLog when sharing).
  void Sync();

  /// Advances the shared layout to `now` and replays the resulting ops.
  void Advance(Tick now);

  /// Side-effect-free estimate at `now` (>= the layout's clock): evaluates
  /// the decayed sum over the bucket structure as of the layout's last
  /// advance, with true ages relative to `now`; each bucket contributes
  /// count * g(age of its newest slot). If this counter has not
  /// applied the layout's latest ops, they are replayed on a local copy of
  /// the cells exactly as Sync() would, so the estimate is bit-identical
  /// to Sync() followed by Estimate(). Buckets whose newest slot is past
  /// the horizon contribute 0. Safe for concurrent readers of a quiescent
  /// structure.
  double Estimate(Tick now) const;

  /// Sum of all bucket counts (no decay weighting).
  double RawTotal() const;

  /// Number of buckets with nonzero counts.
  size_t ActiveBuckets() const { return cells_.size(); }

  /// Last layout op sequence number applied.
  uint64_t AppliedSeq() const { return applied_seq_; }

  /// Storage bits under the paper's metric: per active bucket, the rounded
  /// counter's mantissa+exponent (or exact log-count bits), plus one
  /// sequence register. Boundary storage is *not* charged here — it is
  /// shared across streams (charge the layout separately if unshared).
  size_t StorageBits() const;

  const std::shared_ptr<WbmhLayout>& layout() const { return layout_; }

  /// Snapshot support. The counter must be synced to the layout's current
  /// op sequence (Sync()) before encoding.
  Status EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

  /// Verifies every structural invariant (see util/audit.h): the applied
  /// sequence lies within the layout's retained log window, every count
  /// register is finite and nonnegative with a mantissa width matching the
  /// beta_i = eps/i^2 schedule for its merge level, cell ids are nonzero
  /// and strictly increasing, and — once fully synced — every counted bucket
  /// id is live in the layout.
  Status AuditInvariants() const;

 private:
  struct Cell {
    explicit Cell(uint64_t bucket_id) : id(bucket_id) {}
    uint64_t id;  ///< Layout bucket id.
    RoundedCounter count;
    uint32_t level = 0;  ///< Merge depth, drives the mantissa schedule.
  };

  int MantissaBitsForLevel(uint32_t level) const;
  /// Applies the layout ops [from, OpSeq()) to `cells` (re-rounding each
  /// merge) and returns OpSeq(). The one replay Sync and Estimate share.
  uint64_t ReplayOps(std::vector<Cell>& cells, uint64_t from) const;
  /// The cell of bucket `id`, created empty if absent.
  Cell& CellFor(uint64_t id);

  std::shared_ptr<WbmhLayout> layout_;
  double count_epsilon_;
  int base_mantissa_bits_;  ///< 0 when rounding is disabled.

  std::vector<Cell> cells_;  ///< Sorted by id, so in layout order.
  uint64_t applied_seq_ = 0;
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_WBMH_COUNTER_H_
