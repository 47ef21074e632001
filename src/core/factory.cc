#include "core/factory.h"

#include <string>

#include "core/backends.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/sliding_window.h"
#include "histogram/flat_store.h"

namespace tds {

namespace {

Backend ResolveAuto(const DecayFunction& decay) {
  if (dynamic_cast<const ExponentialDecay*>(&decay) != nullptr) {
    return Backend::kEwma;
  }
  if (dynamic_cast<const PolyExponentialDecay*>(&decay) != nullptr ||
      dynamic_cast<const GeneralPolyExpDecay*>(&decay) != nullptr) {
    return Backend::kPolyExp;
  }
  if (dynamic_cast<const SlidingWindowDecay*>(&decay) != nullptr) {
    return Backend::kCeh;  // CEH over SLIWIN reduces to the plain EH
  }
  // WBMH beats CEH exactly when its bucket count O(log D(g)) is small —
  // polynomial and sub-polynomial decays (Section 5); other admissible
  // decays could have near-linear D (handled above for pure EXPD).
  if (decay.IsWbmhAdmissible()) return Backend::kWbmh;
  return Backend::kCeh;
}

}  // namespace

Backend ResolveBackend(const DecayFunction& decay, Backend requested) {
  return requested == Backend::kAuto ? ResolveAuto(decay) : requested;
}

StatusOr<AggregateOptions> AggregateOptions::Builder::Build() const {
  // Every backend takes the bucket-budget bound, so an epsilon accepted
  // here builds whichever histogram kAuto resolves to.
  if (ClassBudget(options_.epsilon_) == 0) {
    return Status::InvalidArgument(
        "epsilon must be in (0, 1] with a per-class budget ceil(1/epsilon) "
        "+ 1 of at most " +
        std::to_string(kMaxClassBudget));
  }
  if (options_.start_ < 1) {
    return Status::InvalidArgument("start tick must be >= 1");
  }
  if (static_cast<size_t>(options_.backend_) > std::size(Backends::kStates)) {
    return Status::InvalidArgument("unknown backend");
  }
  return options_;
}

StatusOr<std::unique_ptr<DecayedAggregate>> MakeDecayedSum(
    DecayPtr decay, const AggregateOptions& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  return VisitBackend(
      ResolveBackend(*decay, options.backend()),
      [&](auto id) -> StatusOr<std::unique_ptr<DecayedAggregate>> {
        using State = typename decltype(id)::type;
        return Upcast(Owner<State>::Create(
            std::move(decay), Owner<State>::OptionsFor(options)));
      });
}

StatusOr<DecayedAverage> MakeDecayedAverage(DecayPtr decay,
                                            const AggregateOptions& options) {
  auto sum = MakeDecayedSum(decay, options);
  if (!sum.ok()) return sum.status();
  auto count = MakeDecayedSum(decay, options);
  if (!count.ok()) return count.status();
  return DecayedAverage::Create(std::move(sum).value(),
                                std::move(count).value());
}

}  // namespace tds
