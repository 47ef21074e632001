#ifndef TDS_CORE_POLYEXP_COUNTER_H_
#define TDS_CORE_POLYEXP_COUNTER_H_

#include <array>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/decayed_aggregate.h"
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

  /// Accepts PolyExponentialDecay or GeneralPolyExpDecay.
  static StatusOr<PolyExpParams> Create(DecayPtr decay);

  /// The Pascal triangle's consistency and the query degree.
  Status AuditInvariants() const;
};

/// One pipeline's state: the k+1 moment registers, held inline, and the
/// clock. PolyExpCounter owns one; a PolyExp registry keeps one inline in
/// each key's entry.
class PolyExpState {
 public:
  using Params = PolyExpParams;

  void Update(const PolyExpParams& params, Tick t, uint64_t value);
  /// One O(k^2) binomial gap jump per distinct tick; within a tick every
  /// item is a bare M_0 add, in order.
  void UpdateBatch(const PolyExpParams& params,
                   std::span<const StreamItem> items);
  void Advance(const PolyExpParams& params, Tick now);
  double Query(const PolyExpParams& params, Tick now) const {
    return QueryPolynomial(params, params.query_coeffs, now);
  }
  /// See PolyExpCounter::QueryPolynomial.
  double QueryPolynomial(const PolyExpParams& params,
                         const std::vector<double>& coeffs, Tick now) const;
  Tick now(const PolyExpParams& /*params*/) const { return now_; }
  size_t StorageBits(const PolyExpParams& params) const;

  /// k+1 finite nonnegative moment registers (every M_j is a sum of
  /// nonnegative terms), and none past M_k.
  Status AuditInvariants(const PolyExpParams& params) const;

  /// Snapshot support.
  void EncodeState(const PolyExpParams& params, class Encoder& encoder) const;
  Status DecodeState(const PolyExpParams& params, class Decoder& decoder);

 private:
  using Registers = std::array<double, kMaxPolyExpRegisters>;

  void AdvanceTo(const PolyExpParams& params, Tick t);
  /// Register values after a side-effect-free advance to `t` (the binomial
  /// gap jump computed into a temporary; the stored state is untouched).
  Registers RegistersAt(const PolyExpParams& params, Tick t) const;

  Registers registers_{};
  Tick now_ = 0;
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
/// Query() evaluates the registered decay's own polynomial. The object owns
/// one PolyExpState and its PolyExpParams.
class PolyExpCounter : public DecayedAggregate {
 public:
  static StatusOr<std::unique_ptr<PolyExpCounter>> Create(DecayPtr decay);

  /// Convenience overload constructing the monomial decay internally.
  static StatusOr<std::unique_ptr<PolyExpCounter>> Create(int k,
                                                          double lambda);

  void Update(Tick t, uint64_t value) override {
    state_.Update(params_, t, value);
  }
  void UpdateBatch(std::span<const StreamItem> items) override {
    state_.UpdateBatch(params_, items);
  }
  void Advance(Tick now) override { state_.Advance(params_, now); }
  double Query(Tick now) const override { return state_.Query(params_, now); }
  Tick now() const override { return state_.now(params_); }
  size_t StorageBits() const override { return state_.StorageBits(params_); }
  std::string Name() const override { return "POLYEXP_PIPE"; }
  const DecayPtr& decay() const override { return params_.decay; }

  /// Decayed sum under p(x) e^{-lambda x} where p(x) = sum_j coeffs[j] x^j
  /// (coeffs.size() <= k+1).
  double QueryPolynomial(const std::vector<double>& coeffs, Tick now) const {
    return state_.QueryPolynomial(params_, coeffs, now);
  }

  /// Structural invariants: k+1 finite nonnegative moment registers (every
  /// M_j is a sum of nonnegative terms), a consistent Pascal triangle, and
  /// a query polynomial of degree <= k.
  Status AuditInvariants() const;

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const {
    state_.EncodeState(params_, encoder);
  }
  Status DecodeState(class Decoder& decoder);

 private:
  explicit PolyExpCounter(PolyExpParams params) : params_(std::move(params)) {}

  PolyExpParams params_;
  PolyExpState state_;
};

}  // namespace tds

#endif  // TDS_CORE_POLYEXP_COUNTER_H_
