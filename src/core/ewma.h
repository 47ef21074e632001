#ifndef TDS_CORE_EWMA_H_
#define TDS_CORE_EWMA_H_

#include <memory>
#include <string>

#include "core/decayed_aggregate.h"
#include "decay/exponential.h"
#include "util/status.h"

namespace tds {

/// The classic single-register algorithm for exponential decay (paper
/// Eq. 1): S <- f(t) + e^{-lambda} * S once per tick, generalized here to
/// jump over idle gaps with one multiply. Under this library's age
/// convention the maintained register R = sum_i f_i e^{-lambda (now - t_i)}
/// and Query returns e^{-lambda} * R.
///
/// With `mantissa_bits > 0` the register is re-rounded after every update,
/// emulating a log(1/eps)-bit significand; together with the exponent field
/// this realizes the Theta(log N) storage bound of Lemma 3.1.
class EwmaCounter : public DecayedAggregate {
 public:
  struct Options {
    /// 0 = native double register; otherwise significand width.
    int mantissa_bits = 0;
  };

  static StatusOr<std::unique_ptr<EwmaCounter>> Create(DecayPtr decay,
                                                       const Options& options);

  void Update(Tick t, uint64_t value) override;
  void UpdateBatch(std::span<const StreamItem> items) override;
  void Advance(Tick now) override;
  double Query(Tick now) const override;
  Tick now() const override { return now_; }
  size_t StorageBits() const override;
  std::string Name() const override { return "EWMA"; }
  const DecayPtr& decay() const override { return decay_; }
  std::unique_ptr<DecayedAggregate> Clone() const override {
    return std::make_unique<EwmaCounter>(*this);
  }

  /// Structural invariants: a finite nonnegative register bounded by the
  /// running maximum, clock ordering, and (with mantissa rounding on) the
  /// register being a fixed point of the re-round.
  Status AuditInvariants() const;

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

 private:
  EwmaCounter(DecayPtr decay, double lambda, const Options& options);

  void AdvanceTo(Tick t);

  DecayPtr decay_;
  double lambda_;
  int mantissa_bits_;

  double register_ = 0.0;
  double max_register_ = 0.0;
  Tick now_ = 0;
  Tick first_arrival_ = 0;
};

}  // namespace tds

#endif  // TDS_CORE_EWMA_H_
