#ifndef TDS_CORE_WBMH_H_
#define TDS_CORE_WBMH_H_

#include <memory>
#include <string>

#include "core/decayed_aggregate.h"
#include "histogram/wbmh_counter.h"
#include "histogram/wbmh_layout.h"
#include "util/status.h"

namespace tds {

/// Weight-Based Merging Histogram decayed sum (paper Section 5, Lemma 5.1):
/// combines the stream-independent boundary process (WbmhLayout) with a
/// per-stream approximate counter (WbmhCounter). Applicable when
/// g(x)/g(x+1) is non-increasing — exponential, polynomial, and smoother
/// decays. For POLYD it uses O(eps^{-1} log N) buckets of
/// O(log(1/eps) + log log N) bits each: O(log N log log N) total, beating
/// the CEH's O(log^2 N).
///
/// The layout may be shared across many streams (see WbmhLayout); this
/// wrapper owns a private layout for the common single-stream case.
class WbmhDecayedSum : public DecayedAggregate {
 public:
  struct Options {
    /// Bucketing precision: weights within one bucket agree within 1+eps.
    double epsilon = 0.5;
    /// Count-rounding precision; <= 0 stores exact counts (ablation mode).
    /// Defaults to tying it to `epsilon`.
    double count_epsilon = -1.0;
    /// First tick of the stream's life.
    Tick start = 1;
    /// Refuse decay functions failing the g(x)/g(x+1) monotone-ratio test.
    bool require_admissible = true;
  };

  static StatusOr<std::unique_ptr<WbmhDecayedSum>> Create(
      DecayPtr decay, const Options& options);

  /// Builds a counter over an existing shared layout.
  static StatusOr<std::unique_ptr<WbmhDecayedSum>> CreateShared(
      std::shared_ptr<WbmhLayout> layout, const Options& options);

  void Update(Tick t, uint64_t value) override;
  /// Amortized batch path: layout advance / op replay / bucket lookup run
  /// once per distinct tick; counts still add per item so the rounded
  /// registers stay bit-identical to the per-item sequence.
  void UpdateBatch(std::span<const StreamItem> items) override;
  void Advance(Tick now) override;
  /// Const and side-effect free: evaluates over the layout as frozen by the
  /// last mutation, with true ages relative to `now` (see
  /// WbmhCounter::Estimate). Advance(now) first to roll merges/drops.
  double Query(Tick now) const override;
  size_t StorageBits() const override;
  std::string Name() const override { return "WBMH"; }
  const DecayPtr& decay() const override { return layout().decay(); }

  const WbmhLayout& layout() const { return *counter_.layout(); }
  const WbmhCounter& counter() const { return counter_; }

  /// True when this instance owns its layout (its storage is then charged
  /// in StorageBits; shared layouts are charged once, externally).
  bool owns_layout() const { return owns_layout_; }

  /// Snapshot support (owned layouts only: the layout state is embedded).
  Status EncodeState(class Encoder& encoder);
  Status DecodeState(class Decoder& decoder);

  /// Shared-layout registry support. SyncShared replays pending layout ops
  /// without adding data, so the layout owner can TrimLog across all
  /// counters. Encode/DecodeCounterState snapshot only the per-stream
  /// counter — the owner encodes the shared layout once, separately, and
  /// must decode it before any counter (the counter snapshot binds to the
  /// layout's op sequence).
  void SyncShared() { counter_.Sync(); }
  Status EncodeCounterState(class Encoder& encoder);
  Status DecodeCounterState(class Decoder& decoder);

  /// Audits the layout then the counter (see util/audit.h).
  Status AuditInvariants();

 private:
  WbmhDecayedSum(std::shared_ptr<WbmhLayout> layout, const Options& options,
                 bool owns_layout);

  WbmhCounter counter_;
  bool owns_layout_;
};

}  // namespace tds

#endif  // TDS_CORE_WBMH_H_
