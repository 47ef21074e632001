#ifndef TDS_CORE_RECENT_ITEMS_H_
#define TDS_CORE_RECENT_ITEMS_H_

#include <memory>
#include <set>
#include <string>

#include "core/decayed_aggregate.h"
#include "decay/exponential.h"
#include "util/status.h"

namespace tds {

/// The "C most recent items" algorithm from the upper bound of Lemma 3.1:
/// for exponential decay it suffices to remember the timestamps of the
///   C = ceil(lambda^{-1} * ln(1 / ((1 - e^{-lambda}) * eps)))
/// most recent items; everything older contributes at most an eps fraction.
/// Non-binary values are folded into shifted timestamps (the paper's
/// footnote 3): an item of value v at tick t is treated as a unit item at
/// effective time t + ln(v)/lambda, which has the same decayed
/// contribution. Storage: C timestamps of log N bits each.
class RecentItemsExpCounter : public DecayedAggregate {
 public:
  struct Options {
    /// Approximation target used to size C.
    double epsilon = 0.1;
  };

  static StatusOr<std::unique_ptr<RecentItemsExpCounter>> Create(
      DecayPtr decay, const Options& options);

  void Update(Tick t, uint64_t value) override;
  void Advance(Tick now) override;
  double Query(Tick now) const override;
  Tick now() const override { return now_; }
  size_t StorageBits() const override;
  std::string Name() const override { return "RECENT_ITEMS"; }
  const DecayPtr& decay() const override { return decay_; }
  std::unique_ptr<DecayedAggregate> Clone() const override {
    return std::make_unique<RecentItemsExpCounter>(*this);
  }

  /// The retention constant C from Lemma 3.1.
  size_t capacity() const { return capacity_; }

  /// Structural invariants: at most C finite effective timestamps.
  Status AuditInvariants() const;

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

 private:
  RecentItemsExpCounter(DecayPtr decay, double lambda, size_t capacity);

  DecayPtr decay_;
  double lambda_;
  size_t capacity_;

  /// Effective (value-shifted) timestamps, largest = most recent; kept to
  /// the C largest.
  std::multiset<double> effective_times_;
  Tick now_ = 0;
};

}  // namespace tds

#endif  // TDS_CORE_RECENT_ITEMS_H_
