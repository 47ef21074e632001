#ifndef TDS_CORE_POLYEXP_COUNTER_H_
#define TDS_CORE_POLYEXP_COUNTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/decayed_aggregate.h"
#include "decay/polyexponential.h"
#include "util/status.h"

namespace tds {

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
class PolyExpCounter : public DecayedAggregate {
 public:
  static StatusOr<std::unique_ptr<PolyExpCounter>> Create(DecayPtr decay);

  /// Convenience overload constructing the monomial decay internally.
  static StatusOr<std::unique_ptr<PolyExpCounter>> Create(int k,
                                                          double lambda);

  void Update(Tick t, uint64_t value) override;
  void UpdateBatch(std::span<const StreamItem> items) override;
  void Advance(Tick now) override;
  double Query(Tick now) const override;
  Tick now() const override { return now_; }
  size_t StorageBits() const override;
  std::string Name() const override { return "POLYEXP_PIPE"; }
  const DecayPtr& decay() const override { return decay_; }
  std::unique_ptr<DecayedAggregate> Clone() const override {
    return std::make_unique<PolyExpCounter>(*this);
  }

  /// Decayed sum under p(x) e^{-lambda x} where p(x) = sum_j coeffs[j] x^j
  /// (coeffs.size() <= k+1).
  double QueryPolynomial(const std::vector<double>& coeffs, Tick now) const;

  /// Raw register values (for tests).
  const std::vector<double>& registers() const { return registers_; }

  /// Structural invariants: k+1 finite nonnegative moment registers (every
  /// M_j is a sum of nonnegative terms), a consistent Pascal triangle, and
  /// a query polynomial of degree <= k.
  Status AuditInvariants() const;

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

 private:
  PolyExpCounter(DecayPtr decay, int k, double lambda,
                 std::vector<double> query_coeffs);

  void AdvanceTo(Tick t);

  /// Register values after a side-effect-free advance to `t` (the binomial
  /// gap jump computed into a temporary; the stored state is untouched).
  std::vector<double> RegistersAt(Tick t) const;

  DecayPtr decay_;
  int k_;
  double lambda_;
  std::vector<double> query_coeffs_;  ///< p(x) evaluated by Query().
  std::vector<std::vector<double>> binomial_;  ///< Pascal rows 0..k.
  std::vector<double> registers_;              ///< M_0..M_k.
  Tick now_ = 0;
};

}  // namespace tds

#endif  // TDS_CORE_POLYEXP_COUNTER_H_
