#ifndef TDS_CORE_EWMA_H_
#define TDS_CORE_EWMA_H_

#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/decayed_aggregate.h"
#include "decay/exponential.h"
#include "util/status.h"

namespace tds {

/// The constants of an EWMA register: the decay rate and the significand
/// width, shared by every key of a registry.
struct EwmaParams {
  DecayPtr decay;
  double lambda = 0.0;
  /// 0 = native double register; otherwise significand width.
  int mantissa_bits = 0;

  /// Rejects a decay that is not ExponentialDecay and mantissa_bits < 0.
  static StatusOr<EwmaParams> Create(DecayPtr decay, int mantissa_bits);
};

/// One EWMA register's state (32 bytes): the register, its running
/// maximum, the clock and the first arrival. EwmaCounter owns one; an EWMA
/// registry keeps one inline in each key's entry.
class EwmaState {
 public:
  using Params = EwmaParams;

  void Update(const EwmaParams& params, Tick t, uint64_t value);
  /// One gap-decay multiply per distinct tick; the adds stay per item.
  void UpdateBatch(const EwmaParams& params,
                   std::span<const StreamItem> items);
  void Advance(const EwmaParams& params, Tick now);
  double Query(const EwmaParams& params, Tick now) const;
  Tick now(const EwmaParams& /*params*/) const { return now_; }
  size_t StorageBits(const EwmaParams& params) const;

  /// See EwmaCounter::AuditInvariants.
  Status AuditInvariants(const EwmaParams& params) const;

  /// Snapshot support.
  void EncodeState(const EwmaParams& params, class Encoder& encoder) const;
  Status DecodeState(const EwmaParams& params, class Decoder& decoder);

 private:
  void AdvanceTo(const EwmaParams& params, Tick t);
  /// Adds one item's value at the current tick and re-rounds.
  void Add(const EwmaParams& params, Tick t, uint64_t value);

  double register_ = 0.0;
  double max_register_ = 0.0;
  Tick now_ = 0;
  Tick first_arrival_ = 0;
};

/// The classic single-register algorithm for exponential decay (paper
/// Eq. 1): S <- f(t) + e^{-lambda} * S once per tick, generalized here to
/// jump over idle gaps with one multiply. Under this library's age
/// convention the maintained register R = sum_i f_i e^{-lambda (now - t_i)}
/// and Query returns e^{-lambda} * R.
///
/// With `mantissa_bits > 0` the register is re-rounded after every update,
/// emulating a log(1/eps)-bit significand; together with the exponent field
/// this realizes the Theta(log N) storage bound of Lemma 3.1. The object
/// owns one EwmaState and its EwmaParams.
class EwmaCounter : public DecayedAggregate {
 public:
  struct Options {
    /// 0 = native double register; otherwise significand width.
    int mantissa_bits = 0;
  };

  static StatusOr<std::unique_ptr<EwmaCounter>> Create(DecayPtr decay,
                                                       const Options& options);

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
  std::string Name() const override { return "EWMA"; }
  const DecayPtr& decay() const override { return params_.decay; }

  /// Structural invariants: a finite nonnegative register bounded by the
  /// running maximum, clock ordering, and (with mantissa rounding on) the
  /// register being a fixed point of the re-round.
  Status AuditInvariants() const { return state_.AuditInvariants(params_); }

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const {
    state_.EncodeState(params_, encoder);
  }
  Status DecodeState(class Decoder& decoder);

 private:
  explicit EwmaCounter(EwmaParams params) : params_(std::move(params)) {}

  EwmaParams params_;
  EwmaState state_;
};

}  // namespace tds

#endif  // TDS_CORE_EWMA_H_
