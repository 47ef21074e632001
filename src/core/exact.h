#ifndef TDS_CORE_EXACT_H_
#define TDS_CORE_EXACT_H_

#include <deque>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "core/standalone.h"
#include "util/status.h"

namespace tds {

/// The constants of an exact decayed sum: the decay function alone.
struct ExactParams {
  DecayPtr decay;
};

/// Exact reference implementation: stores every (tick, value) pair (pruning
/// only items past the decay horizon) and evaluates S_g by direct
/// summation. Linear storage — the paper's Lemmas 3.1/3.2 show this is
/// unavoidable for exact answers — so it serves as ground truth for tests
/// and benchmarks, not as a streaming algorithm.
///
/// One exact sum's state is a handle to a heap block holding the retained
/// (tick, value) items and the clock, allocated on the first mutation or
/// decode. ExactDecayedSum owns one; an EXACT registry keeps the handle in
/// each key's entry. Copies are deep.
class ExactState {
 public:
  using Params = ExactParams;
  struct Options {};
  static constexpr std::string_view kName = "EXACT";

  /// Rejects a null decay.
  static StatusOr<ExactParams> MakeParams(DecayPtr decay,
                                          const Options& options);
  static Options OptionsFor(const AggregateOptions&) { return {}; }
  /// The payload holds no options.
  static StatusOr<ExactParams> ReadParams(DecayPtr decay,
                                          Decoder& /*payload*/) {
    return MakeParams(std::move(decay), {});
  }

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
  void EncodeState(const ExactParams& params, Encoder& encoder) const;
  Status DecodeState(const ExactParams& params, Decoder& decoder);

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

using ExactDecayedSum = Standalone<ExactState>;

}  // namespace tds

#endif  // TDS_CORE_EXACT_H_
