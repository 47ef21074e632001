#ifndef TDS_CORE_EXACT_H_
#define TDS_CORE_EXACT_H_

#include <deque>
#include <memory>
#include <string>

#include "core/decayed_aggregate.h"
#include "util/status.h"

namespace tds {

/// Exact reference implementation: stores every (tick, value) pair (pruning
/// only items past the decay horizon) and evaluates S_g by direct
/// summation. Linear storage — the paper's Lemmas 3.1/3.2 show this is
/// unavoidable for exact answers — so it serves as ground truth for tests
/// and benchmarks, not as a streaming algorithm.
class ExactDecayedSum : public DecayedAggregate {
 public:
  static StatusOr<std::unique_ptr<ExactDecayedSum>> Create(DecayPtr decay);

  void Update(Tick t, uint64_t value) override;
  void Advance(Tick now) override;
  double Query(Tick now) const override;
  Tick now() const override { return now_; }
  size_t StorageBits() const override;
  std::string Name() const override { return "EXACT"; }
  const DecayPtr& decay() const override { return decay_; }
  std::unique_ptr<DecayedAggregate> Clone() const override {
    return std::make_unique<ExactDecayedSum>(*this);
  }

  /// Number of retained (tick, value) pairs.
  size_t ItemCount() const { return items_.size(); }

  /// Structural invariants: strictly increasing item ticks bounded by the
  /// clock, positive values, and no item past a finite horizon.
  Status AuditInvariants() const;

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

 private:
  explicit ExactDecayedSum(DecayPtr decay) : decay_(std::move(decay)) {}

  struct Entry {
    Tick t;
    uint64_t value;
  };

  DecayPtr decay_;
  std::deque<Entry> items_;
  Tick now_ = 0;
};

}  // namespace tds

#endif  // TDS_CORE_EXACT_H_
