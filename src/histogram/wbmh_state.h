#ifndef TDS_HISTOGRAM_WBMH_STATE_H_
#define TDS_HISTOGRAM_WBMH_STATE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "histogram/wbmh_layout.h"
#include "stream/stream.h"
#include "util/common.h"
#include "util/status.h"

namespace tds {

/// The constants of a WBMH count vector: the layout it counts on and the
/// count-rounding precision. A registry holds one for all its keys; the
/// layout is borrowed, never owned.
struct WbmhParams {
  WbmhLayout* layout = nullptr;
  /// Count-rounding precision: accumulated rounding drift stays below
  /// (1 + count_epsilon). Zero or negative disables rounding (exact
  /// counts; the CEH-vs-WBMH ablation uses this).
  double count_epsilon = 0.0;
  /// The mantissa width count_epsilon names; 0 when rounding is disabled.
  int base_mantissa_bits = 0;

  /// Rejects a count_epsilon whose rounding width is undefined: a
  /// non-finite value, or one so small that the width does not fit an int.
  static Status ValidateCountEpsilon(double count_epsilon);
  /// CHECKs ValidateCountEpsilon(count_epsilon).
  WbmhParams(WbmhLayout* layout, double count_epsilon);

  /// Mantissa width at merge level `level` (0 when rounding is off).
  int MantissaBitsForLevel(uint32_t level) const;
};

/// Per-stream state of a Weight-Based Merging Histogram (paper Section 5):
/// one (approximate) count per layout bucket that has received items, in a
/// single vector sorted by the layout's bucket id, plus the last layout op
/// applied — 32 bytes and one heap array. Boundaries live in the
/// WbmhLayout, which any number of states may share; a state stores only
/// counts, which is the paper's point — for 100M customer streams the
/// boundary process is amortized across all of them. AggregateRegistry
/// keeps one state per key inline on its one layout; WbmhDecayedSum owns
/// one on a private layout.
///
/// Layout ids only ever increase oldest-first (a seal takes a fresh id, a
/// merge keeps the older id, a drop removes the oldest bucket), so id order
/// is layout order: a merge folds a cell into its predecessor, a drop pops
/// the front, an arrival almost always lands on the back, and a read is one
/// merge-join of the cells with the layout's spans.
///
/// A cell is (id, count, level). Arrivals add to the count exactly; each
/// merge re-rounds it once to ~log(1/eps) significant bits (RoundValue).
/// The mantissa width is derived from the merge level l: widening it by
/// 2*log2(l) bits implements the paper's beta_i = eps/i^2 schedule, so the
/// total multiplicative drift stays below (1 + eps) without knowing N in
/// advance.
///
/// Update / UpdateBatch / Advance advance the (possibly shared) layout to
/// the tick and replay its pending ops; Query is const and never touches
/// the layout.
class WbmhState {
 public:
  using Params = WbmhParams;
  static constexpr std::string_view kName = "WBMH";

  /// An empty state; a live one starts at its layout's op sequence.
  WbmhState() = default;
  explicit WbmhState(const WbmhParams& params)
      : applied_seq_(params.layout->OpSeq()) {}

  /// Adds `value` unit items arriving at tick t. Advances the layout to t
  /// and replays any pending structural ops first.
  void Update(const WbmhParams& params, Tick t, uint64_t value);
  /// Batch of tick-sorted items: the layout advance / op replay / bucket
  /// lookup run once per *distinct* tick while counts are still added
  /// per item. Bit-identical to per-item Update.
  void UpdateBatch(const WbmhParams& params,
                   std::span<const StreamItem> items);
  /// Advances the layout to `now` and replays the resulting ops.
  void Advance(const WbmhParams& params, Tick now);

  /// Side-effect-free estimate at `now` (>= the layout's clock): evaluates
  /// the decayed sum over the bucket structure as of the layout's last
  /// advance, with true ages relative to `now`; each bucket contributes
  /// count * g(age of its newest slot). If this state has not applied the
  /// layout's latest ops, they are replayed on a local copy of the cells
  /// exactly as Sync() would, so the estimate is bit-identical to Sync()
  /// followed by Query(). Buckets whose newest slot is past the horizon
  /// contribute 0. Safe for concurrent readers of a quiescent structure.
  double Query(const WbmhParams& params, Tick now) const;
  /// The layout's clock.
  Tick now(const WbmhParams& params) const { return params.layout->now(); }

  /// Storage bits under the paper's metric: per active bucket, the rounded
  /// count's mantissa+exponent (or exact log-count bits), plus one
  /// sequence register. Boundary storage is *not* charged here — it is
  /// shared across streams (WbmhLayout::StorageBits charges it once).
  size_t StorageBits(const WbmhParams& params) const;

  /// Requests the cell array's first and last lines: an op replay walks it
  /// from the front, an arrival lands on the back.
  void Prefetch() const {
    if (cells_.empty()) return;
    TDS_PREFETCH(cells_.data());
    TDS_PREFETCH(&cells_.back());
  }

  /// Replays structural ops up to the layout's current sequence number
  /// without adding data (call before WbmhLayout::TrimLog when sharing).
  void Sync(const WbmhParams& params);

  /// Sum of all bucket counts (no decay weighting).
  double RawTotal() const;
  /// Number of buckets with nonzero counts.
  size_t ActiveBuckets() const { return cells_.size(); }
  /// Last layout op sequence number applied.
  uint64_t AppliedSeq() const { return applied_seq_; }

  /// Snapshot support: the params' count_epsilon, then the state. The
  /// state must be synced to the layout's current op sequence first.
  /// Decoding requires the encoded count_epsilon to be the params'.
  Status EncodeState(const WbmhParams& params, class Encoder& encoder) const;
  Status DecodeState(const WbmhParams& params, class Decoder& decoder);

  /// Verifies every structural invariant (see util/audit.h): the applied
  /// sequence lies within the layout's retained log window, every count is
  /// finite and nonnegative, cell ids are nonzero and strictly increasing,
  /// and — once fully synced — every counted bucket id is live in the
  /// layout.
  Status AuditInvariants(const WbmhParams& params) const;

 private:
  struct Cell {
    uint64_t id = 0;     ///< Layout bucket id.
    double count = 0.0;  ///< Exact since the last merge, rounded at merges.
    uint32_t level = 0;  ///< Merge depth, drives the mantissa schedule.
  };

  /// Applies the layout ops [from, OpSeq()) to `cells` (re-rounding each
  /// merge) and returns OpSeq(). The one replay Sync and Query share.
  static uint64_t ReplayOps(const WbmhParams& params, std::vector<Cell>& cells,
                            uint64_t from);
  /// The cell of bucket `id`, created empty if absent.
  Cell& CellFor(uint64_t id);

  std::vector<Cell> cells_;  ///< Sorted by id, so in layout order.
  uint64_t applied_seq_ = 0;
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_WBMH_STATE_H_
