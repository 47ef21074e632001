#ifndef TDS_CORE_STANDALONE_H_
#define TDS_CORE_STANDALONE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/decayed_aggregate.h"
#include "core/factory.h"
#include "util/audit.h"
#include "util/codec.h"
#include "util/status.h"

namespace tds {

/// A fresh state: built from the constants when the state type starts from
/// them (a WBMH state at the layout's op sequence, a coarse CEH's RNG at its
/// seed), empty otherwise.
template <typename State>
State NewState(const typename State::Params& params) {
  if constexpr (std::is_constructible_v<State,
                                        const typename State::Params&>) {
    return State(params);
  } else {
    return State();
  }
}

/// One backend state and its constants as a self-contained decayed sum: the
/// single-stream form of what AggregateRegistry keeps per key. Each method
/// forwards to the state with the params. The state type supplies `Params`,
/// `Options`, `kName` (the snapshot type and Name()), `OptionsFor` (from
/// AggregateOptions), `MakeParams` (from Options) and `ReadParams` (from
/// the front of a snapshot payload). Extras (bucket counts, capacity, the
/// CEH merge) go through state() and params(). Copies are deep.
template <typename State>
class Standalone final : public DecayedAggregate {
 public:
  using Params = typename State::Params;
  using Options = typename State::Options;

  explicit Standalone(Params params)
      : params_(std::move(params)), state_(NewState<State>(params_)) {}

  /// Rejects what State::MakeParams rejects.
  static StatusOr<std::unique_ptr<Standalone>> Create(
      DecayPtr decay, const Options& options = Options()) {
    auto params = State::MakeParams(std::move(decay), options);
    if (!params.ok()) return params.status();
    return std::make_unique<Standalone>(std::move(params).value());
  }
  /// The options MakeDecayedSum builds this backend with.
  static Options OptionsFor(const AggregateOptions& options) {
    return State::OptionsFor(options);
  }
  /// Rebuilds a structure from a standalone snapshot payload.
  static StatusOr<std::unique_ptr<Standalone>> Decode(
      DecayPtr decay, std::string_view payload) {
    Decoder peek(payload);
    auto params = State::ReadParams(std::move(decay), peek);
    if (!params.ok()) return params.status();
    auto created = std::make_unique<Standalone>(std::move(params).value());
    Decoder body(payload);
    const Status status = created->DecodeState(body);
    if (!status.ok()) return status;
    return created;
  }

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
  std::string Name() const override { return std::string(State::kName); }
  const DecayPtr& decay() const override { return params_.decay; }

  Status EncodeState(Encoder& encoder) const override {
    state_.EncodeState(params_, encoder);
    return Status::OK();
  }
  /// Refuses a state encoded under other params.
  Status DecodeState(Decoder& decoder) {
    const Status status = state_.DecodeState(params_, decoder);
    if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
    return status;
  }

  /// The params' own audit where they have one, then the state's.
  Status AuditInvariants() const {
    if constexpr (requires { params_.AuditInvariants(); }) {
      const Status params = params_.AuditInvariants();
      if (!params.ok()) return params;
    }
    return state_.AuditInvariants(params_);
  }

  const Params& params() const { return params_; }
  const State& state() const { return state_; }
  State& state() { return state_; }

 private:
  Params params_;
  State state_;
};

}  // namespace tds

#endif  // TDS_CORE_STANDALONE_H_
