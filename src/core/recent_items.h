#ifndef TDS_CORE_RECENT_ITEMS_H_
#define TDS_CORE_RECENT_ITEMS_H_

#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "core/decayed_aggregate.h"
#include "decay/exponential.h"
#include "util/status.h"

namespace tds {

/// The constants of a recent-items counter: the decay rate and the
/// retention constant C.
struct RecentItemsParams {
  DecayPtr decay;
  double lambda = 0.0;
  size_t capacity = 1;

  /// Rejects a decay that is not ExponentialDecay and an epsilon outside
  /// (0, 1); sizes C from epsilon (Lemma 3.1).
  static StatusOr<RecentItemsParams> Create(DecayPtr decay, double epsilon);
  /// Rejects a decay that is not ExponentialDecay and a zero capacity.
  static StatusOr<RecentItemsParams> WithCapacity(DecayPtr decay,
                                                  size_t capacity);
};

/// One recent-items counter's state: a handle to a heap block holding the
/// retained effective timestamps and the clock, allocated on the first
/// mutation or decode. C lives in the params alone: a snapshot naming
/// another C does not decode. RecentItemsExpCounter owns one; a
/// RECENT_ITEMS registry keeps the handle in each key's entry. Copies are
/// deep.
class RecentItemsState {
 public:
  using Params = RecentItemsParams;

  RecentItemsState() = default;
  RecentItemsState(const RecentItemsState& other)
      : block_(other.block_ ? std::make_unique<Block>(*other.block_)
                            : nullptr) {}
  RecentItemsState(RecentItemsState&&) noexcept = default;
  RecentItemsState& operator=(const RecentItemsState& other) {
    RecentItemsState copy(other);
    return *this = std::move(copy);
  }
  RecentItemsState& operator=(RecentItemsState&&) noexcept = default;

  void Update(const RecentItemsParams& params, Tick t, uint64_t value);
  void UpdateBatch(const RecentItemsParams& params,
                   std::span<const StreamItem> items);
  void Advance(const RecentItemsParams& params, Tick now);
  double Query(const RecentItemsParams& params, Tick now) const;
  Tick now(const RecentItemsParams& /*params*/) const {
    return block_ ? block_->now : 0;
  }
  size_t StorageBits(const RecentItemsParams& params) const;

  /// At most C finite effective timestamps.
  Status AuditInvariants(const RecentItemsParams& params) const;

  /// Snapshot support.
  void EncodeState(const RecentItemsParams& params,
                   class Encoder& encoder) const;
  Status DecodeState(const RecentItemsParams& params, class Decoder& decoder);

 private:
  struct Block {
    /// Effective (value-shifted) timestamps, largest = most recent; kept
    /// to the C largest.
    std::multiset<double> effective_times;
    Tick now = 0;
  };

  Block& block() {
    if (!block_) block_ = std::make_unique<Block>();
    return *block_;
  }

  std::unique_ptr<Block> block_;
};

/// The "C most recent items" algorithm from the upper bound of Lemma 3.1:
/// for exponential decay it suffices to remember the timestamps of the
///   C = ceil(lambda^{-1} * ln(1 / ((1 - e^{-lambda}) * eps)))
/// most recent items; everything older contributes at most an eps fraction.
/// Non-binary values are folded into shifted timestamps (the paper's
/// footnote 3): an item of value v at tick t is treated as a unit item at
/// effective time t + ln(v)/lambda, which has the same decayed
/// contribution. Storage: C timestamps of log N bits each. The object owns
/// one RecentItemsState and its RecentItemsParams.
class RecentItemsExpCounter : public DecayedAggregate {
 public:
  struct Options {
    /// Approximation target used to size C.
    double epsilon = 0.1;
  };

  static StatusOr<std::unique_ptr<RecentItemsExpCounter>> Create(
      DecayPtr decay, const Options& options);
  /// A counter retaining `capacity` items: how a standalone snapshot, which
  /// names C but not epsilon, is rebuilt.
  static StatusOr<std::unique_ptr<RecentItemsExpCounter>> CreateWithCapacity(
      DecayPtr decay, size_t capacity);

  void Update(Tick t, uint64_t value) override {
    state_.Update(params_, t, value);
  }
  void Advance(Tick now) override { state_.Advance(params_, now); }
  double Query(Tick now) const override { return state_.Query(params_, now); }
  Tick now() const override { return state_.now(params_); }
  size_t StorageBits() const override { return state_.StorageBits(params_); }
  std::string Name() const override { return "RECENT_ITEMS"; }
  const DecayPtr& decay() const override { return params_.decay; }

  /// The retention constant C from Lemma 3.1.
  size_t capacity() const { return params_.capacity; }

  /// Structural invariants: at most C finite effective timestamps.
  Status AuditInvariants() const { return state_.AuditInvariants(params_); }

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const {
    state_.EncodeState(params_, encoder);
  }
  Status DecodeState(class Decoder& decoder);

 private:
  explicit RecentItemsExpCounter(RecentItemsParams params)
      : params_(std::move(params)) {}

  RecentItemsParams params_;
  RecentItemsState state_;
};

}  // namespace tds

#endif  // TDS_CORE_RECENT_ITEMS_H_
