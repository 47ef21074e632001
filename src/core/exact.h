#ifndef TDS_CORE_EXACT_H_
#define TDS_CORE_EXACT_H_

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/decayed_aggregate.h"
#include "util/status.h"

namespace tds {

/// The constants of an exact decayed sum: the decay function alone.
struct ExactParams {
  DecayPtr decay;
};

/// One exact sum's state: a handle to a heap block holding the retained
/// (tick, value) items and the clock, allocated on the first mutation or
/// decode. ExactDecayedSum owns one; an EXACT registry keeps the handle in
/// each key's entry. Copies are deep.
class ExactState {
 public:
  using Params = ExactParams;

  ExactState() = default;
  ExactState(const ExactState& other)
      : block_(other.block_ ? std::make_unique<Block>(*other.block_)
                            : nullptr) {}
  ExactState(ExactState&&) noexcept = default;
  ExactState& operator=(const ExactState& other) {
    ExactState copy(other);
    return *this = std::move(copy);
  }
  ExactState& operator=(ExactState&&) noexcept = default;

  void Update(const ExactParams& params, Tick t, uint64_t value);
  void UpdateBatch(const ExactParams& params,
                   std::span<const StreamItem> items);
  void Advance(const ExactParams& params, Tick now);
  double Query(const ExactParams& params, Tick now) const;
  Tick now(const ExactParams& /*params*/) const {
    return block_ ? block_->now : 0;
  }
  size_t StorageBits(const ExactParams& params) const;

  /// Number of retained (tick, value) pairs.
  size_t ItemCount() const { return block_ ? block_->items.size() : 0; }

  /// Strictly increasing item ticks bounded by the clock, positive values,
  /// and no item past a finite horizon.
  Status AuditInvariants(const ExactParams& params) const;

  /// Snapshot support.
  void EncodeState(const ExactParams& params, class Encoder& encoder) const;
  Status DecodeState(const ExactParams& params, class Decoder& decoder);

 private:
  struct Entry {
    Tick t;
    uint64_t value;
  };
  struct Block {
    std::deque<Entry> items;
    Tick now = 0;
  };

  Block& block() {
    if (!block_) block_ = std::make_unique<Block>();
    return *block_;
  }
  /// Drops items past a finite horizon.
  void Prune(const ExactParams& params);

  std::unique_ptr<Block> block_;
};

/// Exact reference implementation: stores every (tick, value) pair (pruning
/// only items past the decay horizon) and evaluates S_g by direct
/// summation. Linear storage — the paper's Lemmas 3.1/3.2 show this is
/// unavoidable for exact answers — so it serves as ground truth for tests
/// and benchmarks, not as a streaming algorithm. The object owns one
/// ExactState and its ExactParams.
class ExactDecayedSum : public DecayedAggregate {
 public:
  static StatusOr<std::unique_ptr<ExactDecayedSum>> Create(DecayPtr decay);

  void Update(Tick t, uint64_t value) override {
    state_.Update(params_, t, value);
  }
  void Advance(Tick now) override { state_.Advance(params_, now); }
  double Query(Tick now) const override { return state_.Query(params_, now); }
  Tick now() const override { return state_.now(params_); }
  size_t StorageBits() const override { return state_.StorageBits(params_); }
  std::string Name() const override { return "EXACT"; }
  const DecayPtr& decay() const override { return params_.decay; }

  /// Number of retained (tick, value) pairs.
  size_t ItemCount() const { return state_.ItemCount(); }

  /// Structural invariants: strictly increasing item ticks bounded by the
  /// clock, positive values, and no item past a finite horizon.
  Status AuditInvariants() const { return state_.AuditInvariants(params_); }

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const {
    state_.EncodeState(params_, encoder);
  }
  Status DecodeState(class Decoder& decoder);

 private:
  explicit ExactDecayedSum(DecayPtr decay) : params_{std::move(decay)} {}

  ExactParams params_;
  ExactState state_;
};

}  // namespace tds

#endif  // TDS_CORE_EXACT_H_
