#ifndef TDS_CORE_POLYEXP_COUNTER_H_
#define TDS_CORE_POLYEXP_COUNTER_H_

#include <array>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/standalone.h"
#include "decay/polyexponential.h"
#include "util/status.h"

namespace tds {

/// Registers of the highest degree the polyexponential decays take (20).
inline constexpr int kMaxPolyExpRegisters = 21;

/// The constants of a polyexponential register pipeline: the degree, the
/// decay rate, the query polynomial and the Pascal rows, shared by every
/// key of a registry.
struct PolyExpParams {
  DecayPtr decay;
  int k = 0;
  double lambda = 0.0;
  std::vector<double> query_coeffs;  ///< p(x) evaluated by Query().
  std::vector<std::vector<double>> binomial;  ///< Pascal rows 0..k.

  /// The Pascal triangle's consistency and the query degree.
  Status AuditInvariants() const;
};

/// Polyexponential decay g(x) = x^k e^{-lambda x} / k! via k+1 pipelined
/// exponential registers (paper Section 3.4; Brown's double/triple
/// exponential smoothing for k = 1, 2). The registers hold the decayed
/// power moments
///   M_j = sum_i f_i * (now - t_i)^j * e^{-lambda (now - t_i)},
/// advanced over a gap D with the binomial identity
///   M_j <- e^{-lambda D} * sum_{r<=j} C(j,r) D^{j-r} M_r,
/// so updates cost O(k^2) regardless of gap length. The decayed sum under
/// any degree-k polynomial p(x) e^{-lambda x} is a fixed linear combination
/// of the registers (QueryPolynomial).
/// Accepts PolyExponentialDecay (monomial x^k e^{-lambda x}/k!) or
/// GeneralPolyExpDecay (arbitrary nonnegative-coefficient p(x) e^{-lambda x});
/// Query() evaluates the registered decay's own polynomial.
///
/// One pipeline's state is the k+1 moment registers, held inline, and the
/// clock. PolyExpCounter owns one; a PolyExp registry keeps one inline in
/// each key's entry.
class PolyExpState {
 public:
  using Params = PolyExpParams;
  struct Options {};
  static constexpr std::string_view kName = "POLYEXP_PIPE";

  /// Accepts PolyExponentialDecay or GeneralPolyExpDecay.
  static StatusOr<PolyExpParams> MakeParams(DecayPtr decay,
                                            const Options& options);
  static Options OptionsFor(const AggregateOptions&) { return {}; }
  /// The degree the payload leads with is checked by DecodeState.
  static StatusOr<PolyExpParams> ReadParams(DecayPtr decay,
                                            Decoder& /*payload*/) {
    return MakeParams(std::move(decay), {});
  }

  void Update(const PolyExpParams& params, Tick t, uint64_t value);
  /// One O(k^2) binomial gap jump per distinct tick; within a tick every
  /// item is a bare M_0 add, in order.
  void UpdateBatch(const PolyExpParams& params,
                   std::span<const StreamItem> items);
  void Advance(const PolyExpParams& params, Tick now);
  double Query(const PolyExpParams& params, Tick now) const {
    return QueryPolynomial(params, params.query_coeffs, now);
  }
  /// Decayed sum under p(x) e^{-lambda x} where p(x) = sum_j coeffs[j] x^j
  /// (coeffs.size() <= k+1).
  double QueryPolynomial(const PolyExpParams& params,
                         const std::vector<double>& coeffs, Tick now) const;
  Tick now(const PolyExpParams& /*params*/) const { return now_; }
  size_t StorageBits(const PolyExpParams& params) const;

  /// k+1 finite nonnegative moment registers (every M_j is a sum of
  /// nonnegative terms), and none past M_k.
  Status AuditInvariants(const PolyExpParams& params) const;

  /// Snapshot support.
  void EncodeState(const PolyExpParams& params, Encoder& encoder) const;
  Status DecodeState(const PolyExpParams& params, Decoder& decoder);

 private:
  using Registers = std::array<double, kMaxPolyExpRegisters>;

  void AdvanceTo(const PolyExpParams& params, Tick t);
  /// Register values after a side-effect-free advance to `t` (the binomial
  /// gap jump computed into a temporary; the stored state is untouched).
  Registers RegistersAt(const PolyExpParams& params, Tick t) const;

  Registers registers_{};
  Tick now_ = 0;
};

using PolyExpCounter = Standalone<PolyExpState>;

}  // namespace tds

#endif  // TDS_CORE_POLYEXP_COUNTER_H_
