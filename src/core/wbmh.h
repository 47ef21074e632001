#ifndef TDS_CORE_WBMH_H_
#define TDS_CORE_WBMH_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/decayed_aggregate.h"
#include "core/factory.h"
#include "histogram/wbmh_state.h"
#include "histogram/wbmh_layout.h"
#include "util/status.h"

namespace tds {

/// Weight-Based Merging Histogram decayed sum (paper Section 5, Lemma 5.1):
/// combines the stream-independent boundary process (WbmhLayout) with a
/// per-stream approximate count vector (WbmhState). Applicable when
/// g(x)/g(x+1) is non-increasing — exponential, polynomial, and smoother
/// decays. For POLYD it uses O(eps^{-1} log N) buckets of
/// O(log(1/eps) + log log N) bits each: O(log N log log N) total, beating
/// the CEH's O(log^2 N).
///
/// This is the single-stream form: one state on a private layout whose op
/// log is trimmed after every mutation. Many streams share one layout
/// through AggregateRegistry, which keeps a bare WbmhState per key. It is
/// the one owner written by hand rather than a Standalone<State>: it owns
/// the layout its params point at, trims the layout's log after every
/// mutation, audits the layout too, and frames its snapshot with the
/// layout's options and state.
class WbmhDecayedSum final : public DecayedAggregate {
 public:
  struct Options {
    /// Bucketing precision: weights within one bucket agree within 1+eps.
    double epsilon = 0.5;
    /// Count-rounding precision; 0 stores exact counts (ablation mode), and
    /// a negative value (the default) ties it to `epsilon`. Create rejects
    /// values WbmhParams::ValidateCountEpsilon refuses.
    double count_epsilon = -1.0;
    /// First tick of the stream's life.
    Tick start = 1;
    /// Refuse decay functions failing the g(x)/g(x+1) monotone-ratio test.
    bool require_admissible = true;
  };

  static StatusOr<std::unique_ptr<WbmhDecayedSum>> Create(
      DecayPtr decay, const Options& options);
  /// The options MakeDecayedSum builds it with: counts round at the
  /// bucketing precision.
  static Options OptionsFor(const AggregateOptions& options) {
    return {options.epsilon(), -1.0, options.start()};
  }
  /// The boundary process a WBMH under `options` counts on; refuses a decay
  /// that fails the admissibility test if options.require_admissible.
  static StatusOr<WbmhLayout> MakeLayout(DecayPtr decay,
                                         const Options& options);
  /// Rebuilds a structure from a standalone snapshot payload (see
  /// EncodeState).
  static StatusOr<std::unique_ptr<WbmhDecayedSum>> Decode(
      DecayPtr decay, std::string_view payload);

  /// Deep copy: the layout is private, so the copy gets its own.
  WbmhDecayedSum(const WbmhDecayedSum& other);
  WbmhDecayedSum& operator=(const WbmhDecayedSum&) = delete;

  void Update(Tick t, uint64_t value) override;
  /// Amortized batch path: layout advance / op replay / bucket lookup run
  /// once per distinct tick; counts still add per item so the rounded
  /// registers stay bit-identical to the per-item sequence.
  void UpdateBatch(std::span<const StreamItem> items) override;
  void Advance(Tick now) override;
  /// Const and side-effect free: evaluates over the layout as frozen by the
  /// last mutation, with true ages relative to `now` (see
  /// WbmhState::Query). Advance(now) first to roll merges/drops.
  double Query(Tick now) const override { return state_.Query(params_, now); }
  Tick now() const override { return state_.now(params_); }
  /// Paper accounting: per-stream storage is the bucket counts only — the
  /// boundary process is a deterministic function of (g, eps, T) and is
  /// never stored per stream (Section 5).
  size_t StorageBits() const override { return state_.StorageBits(params_); }
  std::string Name() const override { return std::string(WbmhState::kName); }
  const DecayPtr& decay() const override { return layout_.decay(); }

  const WbmhLayout& layout() const { return layout_; }

  /// Snapshot support: epsilon and start, the layout state, then the
  /// state's. Decoding adopts the count_epsilon the state payload names.
  Status EncodeState(Encoder& encoder) const override;
  Status DecodeState(Decoder& decoder);

  /// Audits the layout then the counter (see util/audit.h).
  Status AuditInvariants();

 private:
  WbmhDecayedSum(WbmhLayout layout, double count_epsilon);

  /// Drops the op log the state has applied: nobody else reads it.
  void TrimLog() { layout_.TrimLog(state_.AppliedSeq()); }

  WbmhLayout layout_;
  WbmhParams params_;  ///< Points at layout_.
  WbmhState state_;
};

}  // namespace tds

#endif  // TDS_CORE_WBMH_H_
