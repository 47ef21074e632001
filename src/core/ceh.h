#ifndef TDS_CORE_CEH_H_
#define TDS_CORE_CEH_H_

#include <memory>
#include <span>
#include <string>

#include "core/decayed_aggregate.h"
#include "histogram/exponential_histogram.h"
#include "util/status.h"

namespace tds {

/// The constants of a CEH: its histogram's (epsilon, window = N(g)) and the
/// decay function, shared by every key of a registry.
struct CehParams {
  EhParams eh;
  DecayPtr decay;

  /// Rejects a null decay and what EhParams::Create rejects.
  static StatusOr<CehParams> Create(DecayPtr decay, double epsilon);
};

/// One CEH's state: a bare EhState (48 bytes), read through the decay.
/// CehDecayedSum owns one beside its CehParams; a CEH registry keeps one
/// inline in each key's entry. See CehDecayedSum for the estimator.
class CehState {
 public:
  using Params = CehParams;

  void Update(const CehParams& params, Tick t, uint64_t value);
  /// Coalesces same-tick items into one histogram insertion, so the EH's
  /// merge cascade runs once per distinct tick instead of once per item.
  /// Bit-identical to the per-item sequence (the EH's InsertUnits
  /// implements sequential-insertion semantics).
  void UpdateBatch(const CehParams& params, std::span<const StreamItem> items);
  void Advance(const CehParams& params, Tick now);
  /// Const and side-effect free: expired buckets contribute weight 0, so
  /// skipping the histogram's expiry sweep never changes the estimate.
  double Query(const CehParams& params, Tick now) const;
  Tick now(const CehParams& /*params*/) const { return eh_.now(); }
  size_t StorageBits(const CehParams& params) const {
    return eh_.StorageBits(params.eh);
  }
  void Prefetch() const { eh_.Prefetch(); }

  /// Snapshot support (the histogram's codec).
  void EncodeState(const CehParams& params, class Encoder& encoder) const {
    eh_.EncodeState(params.eh, encoder);
  }
  Status DecodeState(const CehParams& params, class Decoder& decoder);

  /// Audits the histogram (see util/audit.h).
  Status AuditInvariants(const CehParams& params) const {
    return eh_.AuditInvariants(params.eh);
  }

 private:
  friend class CehDecayedSum;

  EhState eh_;
};

/// Cascaded Exponential Histogram (paper Section 4.2, Theorem 1): estimates
/// the decayed sum under *any* decay function from a single Exponential
/// Histogram, using summation by parts (Eq. 3):
///   S_g(T) = g(N) S_win_N(T) + sum_i (g(N-i) - g(N-i+1)) S_win_{N-i}(T).
/// Substituting the EH's window estimates and telescoping per bucket gives
/// the O(log N)-term form (Eq. 4): with consecutive bucket end-ages
/// a_0 < a_1 < ... (a_0 newest), bucket j contributes
///   C_j * (g(a_j) + g(a_{j+1})) / 2
/// (the (1/2) is the EH's half-count rule for the straddling bucket,
/// telescoped across windows; the oldest bucket pairs with the age of the
/// first arrival, or weight 0 past the horizon).
///
/// Storage O(eps^{-1} log^2 N) bits, query O(#buckets) = O(log N). The
/// object owns one CehState and its CehParams.
class CehDecayedSum : public DecayedAggregate {
 public:
  struct Options {
    double epsilon = 0.1;
  };

  static StatusOr<std::unique_ptr<CehDecayedSum>> Create(
      DecayPtr decay, const Options& options);

  void Update(Tick t, uint64_t value) override {
    state_.Update(params_, t, value);
  }
  /// Amortized batch path (CehState::UpdateBatch).
  void UpdateBatch(std::span<const StreamItem> items) override {
    state_.UpdateBatch(params_, items);
  }
  void Advance(Tick now) override { state_.Advance(params_, now); }
  /// Const and side-effect free: expired buckets contribute weight 0 via
  /// SafeWeight, so skipping the histogram's expiry sweep never changes the
  /// estimate. Call Advance(now) to actually reclaim their storage.
  double Query(Tick now) const override { return state_.Query(params_, now); }
  Tick now() const override { return state_.now(params_); }
  size_t StorageBits() const override { return state_.StorageBits(params_); }
  std::string Name() const override { return "CEH"; }
  const DecayPtr& decay() const override { return params_.decay; }

  /// Live histogram buckets.
  size_t BucketCount() const { return state_.eh_.BucketCount(); }

  /// Merges another CEH over a disjoint substream (same decay + epsilon):
  /// the distributed-streams setting. See ExponentialHistogram::MergeFrom.
  Status MergeFrom(const CehDecayedSum& other);

  /// Snapshot support (delegates to the histogram).
  void EncodeState(class Encoder& encoder) const {
    state_.EncodeState(params_, encoder);
  }
  Status DecodeState(class Decoder& decoder);

  /// Audits the underlying histogram (see util/audit.h).
  Status AuditInvariants() const { return state_.AuditInvariants(params_); }

 private:
  explicit CehDecayedSum(CehParams params) : params_(std::move(params)) {}

  CehParams params_;
  CehState state_;
};

}  // namespace tds

#endif  // TDS_CORE_CEH_H_
