#ifndef TDS_CORE_RECENT_ITEMS_H_
#define TDS_CORE_RECENT_ITEMS_H_

#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "core/standalone.h"
#include "decay/exponential.h"
#include "util/status.h"

namespace tds {

/// The constants of a recent-items counter: the decay rate and the
/// retention constant C.
struct RecentItemsParams {
  DecayPtr decay;
  double lambda = 0.0;
  size_t capacity = 1;
};

/// The "C most recent items" algorithm from the upper bound of Lemma 3.1:
/// for exponential decay it suffices to remember the timestamps of the
///   C = ceil(lambda^{-1} * ln(1 / ((1 - e^{-lambda}) * eps)))
/// most recent items; everything older contributes at most an eps fraction.
/// Non-binary values are folded into shifted timestamps (the paper's
/// footnote 3): an item of value v at tick t is treated as a unit item at
/// effective time t + ln(v)/lambda, which has the same decayed
/// contribution. Storage: C timestamps of log N bits each.
///
/// One counter's state is a handle to a heap block holding the retained
/// effective timestamps and the clock, allocated on the first mutation or
/// decode. C lives in the params alone: a snapshot naming another C does
/// not decode. RecentItemsExpCounter owns one; a RECENT_ITEMS registry
/// keeps the handle in each key's entry. Copies are deep.
class RecentItemsState {
 public:
  using Params = RecentItemsParams;
  struct Options {
    /// Approximation target used to size C.
    double epsilon = 0.1;
  };
  static constexpr std::string_view kName = "RECENT_ITEMS";

  /// Rejects a decay that is not ExponentialDecay and an epsilon outside
  /// (0, 1); sizes C from epsilon (Lemma 3.1).
  static StatusOr<RecentItemsParams> MakeParams(DecayPtr decay,
                                                const Options& options);
  static Options OptionsFor(const AggregateOptions& options) {
    return {options.epsilon()};
  }
  /// The payload names C, not epsilon: the counter is rebuilt at that C.
  static StatusOr<RecentItemsParams> ReadParams(DecayPtr decay,
                                                Decoder& payload);

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
  void EncodeState(const RecentItemsParams& params, Encoder& encoder) const;
  Status DecodeState(const RecentItemsParams& params, Decoder& decoder);

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

using RecentItemsExpCounter = Standalone<RecentItemsState>;

}  // namespace tds

#endif  // TDS_CORE_RECENT_ITEMS_H_
