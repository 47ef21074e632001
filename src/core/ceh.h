#ifndef TDS_CORE_CEH_H_
#define TDS_CORE_CEH_H_

#include <span>
#include <string_view>

#include "core/standalone.h"
#include "histogram/exponential_histogram.h"
#include "util/status.h"

namespace tds {

/// The constants of a CEH: its histogram's (epsilon, window = N(g)) and the
/// decay function, shared by every key of a registry.
struct CehParams {
  EhParams eh;
  DecayPtr decay;
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
/// Storage O(eps^{-1} log^2 N) bits, query O(#buckets) = O(log N). One
/// CEH's state is a bare EhState (48 bytes) read through the decay;
/// CehDecayedSum owns one beside its CehParams, and a CEH registry keeps
/// one inline in each key's entry.
class CehState {
 public:
  using Params = CehParams;
  struct Options {
    double epsilon = 0.1;
  };
  static constexpr std::string_view kName = "CEH";

  /// Rejects a null decay and what EhParams::Create rejects.
  static StatusOr<CehParams> MakeParams(DecayPtr decay, const Options& options);
  static Options OptionsFor(const AggregateOptions& options) {
    return {options.epsilon()};
  }
  /// The payload leads with epsilon.
  static StatusOr<CehParams> ReadParams(DecayPtr decay, Decoder& payload);

  void Update(const CehParams& params, Tick t, uint64_t value);
  /// Coalesces same-tick items into one histogram insertion, so the EH's
  /// merge cascade runs once per distinct tick instead of once per item.
  /// Bit-identical to the per-item sequence (FlatBucketStore::InsertUnits
  /// implements sequential-insertion semantics).
  void UpdateBatch(const CehParams& params, std::span<const StreamItem> items);
  void Advance(const CehParams& params, Tick now);
  /// Const and side-effect free: expired buckets contribute weight 0 via
  /// SafeWeight, so skipping the histogram's expiry sweep never changes the
  /// estimate. Call Advance(now) to actually reclaim their storage.
  double Query(const CehParams& params, Tick now) const;
  Tick now(const CehParams& /*params*/) const { return eh_.now(); }
  size_t StorageBits(const CehParams& params) const {
    return eh_.StorageBits(params.eh);
  }
  void Prefetch() const { eh_.Prefetch(); }

  /// Live histogram buckets.
  size_t BucketCount() const { return eh_.BucketCount(); }

  /// Snapshot support (the histogram's codec).
  void EncodeState(const CehParams& params, Encoder& encoder) const {
    eh_.EncodeState(params.eh, encoder);
  }
  Status DecodeState(const CehParams& params, Decoder& decoder);

  /// Audits the histogram (see util/audit.h).
  Status AuditInvariants(const CehParams& params) const {
    return eh_.AuditInvariants(params.eh);
  }

 private:
  friend Status MergeFrom(Standalone<CehState>& into,
                          const Standalone<CehState>& other);

  EhState eh_;
};

using CehDecayedSum = Standalone<CehState>;

/// Merges a CEH over a disjoint substream (same decay and epsilon) into
/// `into`: the distributed-streams setting. See
/// ExponentialHistogram::MergeFrom. Refuses a CEH under other options.
Status MergeFrom(CehDecayedSum& into, const CehDecayedSum& other);

}  // namespace tds

#endif  // TDS_CORE_CEH_H_
