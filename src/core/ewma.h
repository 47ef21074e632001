#ifndef TDS_CORE_EWMA_H_
#define TDS_CORE_EWMA_H_

#include <span>
#include <string_view>

#include "core/standalone.h"
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
};

/// The classic single-register algorithm for exponential decay (paper
/// Eq. 1): S <- f(t) + e^{-lambda} * S once per tick, generalized here to
/// jump over idle gaps with one multiply. Under this library's age
/// convention the maintained register R = sum_i f_i e^{-lambda (now - t_i)}
/// and Query returns e^{-lambda} * R.
///
/// With `mantissa_bits > 0` the register is re-rounded after every update,
/// emulating a log(1/eps)-bit significand; together with the exponent field
/// this realizes the Theta(log N) storage bound of Lemma 3.1.
///
/// One register's state (32 bytes) is the register, its running maximum,
/// the clock and the first arrival. EwmaCounter owns one; an EWMA registry
/// keeps one inline in each key's entry.
class EwmaState {
 public:
  using Params = EwmaParams;
  struct Options {
    /// 0 = native double register; otherwise significand width.
    int mantissa_bits = 0;
  };
  static constexpr std::string_view kName = "EWMA";

  /// Rejects a decay that is not ExponentialDecay and mantissa_bits < 0.
  static StatusOr<EwmaParams> MakeParams(DecayPtr decay,
                                         const Options& options);
  static Options OptionsFor(const AggregateOptions&) { return {}; }
  /// The payload leads with mantissa_bits.
  static StatusOr<EwmaParams> ReadParams(DecayPtr decay, Decoder& payload);

  void Update(const EwmaParams& params, Tick t, uint64_t value);
  /// One gap-decay multiply per distinct tick; the adds stay per item.
  void UpdateBatch(const EwmaParams& params,
                   std::span<const StreamItem> items);
  void Advance(const EwmaParams& params, Tick now);
  double Query(const EwmaParams& params, Tick now) const;
  Tick now(const EwmaParams& /*params*/) const { return now_; }
  size_t StorageBits(const EwmaParams& params) const;

  /// Structural invariants: a finite nonnegative register bounded by the
  /// running maximum, clock ordering, and (with mantissa rounding on) the
  /// register being a fixed point of the re-round.
  Status AuditInvariants(const EwmaParams& params) const;

  /// Snapshot support.
  void EncodeState(const EwmaParams& params, Encoder& encoder) const;
  Status DecodeState(const EwmaParams& params, Decoder& decoder);

 private:
  void AdvanceTo(const EwmaParams& params, Tick t);
  /// Adds one item's value at the current tick and re-rounds.
  void Add(const EwmaParams& params, Tick t, uint64_t value);

  double register_ = 0.0;
  double max_register_ = 0.0;
  Tick now_ = 0;
  Tick first_arrival_ = 0;
};

using EwmaCounter = Standalone<EwmaState>;

}  // namespace tds

#endif  // TDS_CORE_EWMA_H_
