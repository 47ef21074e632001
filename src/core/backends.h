#ifndef TDS_CORE_BACKENDS_H_
#define TDS_CORE_BACKENDS_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/ceh.h"
#include "core/coarse_ceh.h"
#include "core/ewma.h"
#include "core/exact.h"
#include "core/factory.h"
#include "core/polyexp_counter.h"
#include "core/recent_items.h"
#include "core/wbmh.h"
#include "util/check.h"

namespace tds {

/// Backend state types, in Backend order from kExact = 1.
template <typename... States>
struct BackendList {
  /// One T<State> per backend, as one variant.
  template <template <typename> class T>
  using Map = std::variant<T<States>...>;
  static constexpr Map<std::type_identity> kStates[] = {
      std::type_identity<States>{}...};
};

/// Every concrete backend's per-stream state. This one list drives
/// MakeDecayedSum, the registry's slabs and snapshot type, and both
/// directions of the standalone codec.
using Backends =
    BackendList<ExactState, EwmaState, RecentItemsState, CehState,
                CoarseCehState, WbmhState, PolyExpState>;

/// The standalone DecayedAggregate that owns one State: WbmhDecayedSum for
/// WBMH, which also owns its layout, and Standalone<State> for the rest.
template <typename State>
using Owner = std::conditional_t<std::is_same_v<State, WbmhState>,
                                 WbmhDecayedSum, Standalone<State>>;

/// Calls f(std::type_identity<State>{}) for concrete `backend`'s state type.
template <typename F>
decltype(auto) VisitBackend(Backend backend, F&& f) {
  const size_t index = static_cast<size_t>(backend) - 1;  // kAuto wraps
  TDS_CHECK_MSG(index < std::size(Backends::kStates), "unresolved backend");
  return std::visit(std::forward<F>(f), Backends::kStates[index]);
}

/// The backend whose state's kName is `name`; kAuto if none is.
inline Backend BackendNamed(std::string_view name) {
  for (size_t i = 0; i < std::size(Backends::kStates); ++i) {
    if (std::visit([](auto id) { return decltype(id)::type::kName; },
                   Backends::kStates[i]) == name) {
      return static_cast<Backend>(i + 1);
    }
  }
  return Backend::kAuto;
}

/// A backend's owner as the DecayedAggregate interface.
template <typename T>
StatusOr<std::unique_ptr<DecayedAggregate>> Upcast(
    StatusOr<std::unique_ptr<T>> result) {
  if (!result.ok()) return result.status();
  return std::unique_ptr<DecayedAggregate>(std::move(result).value());
}

}  // namespace tds

#endif  // TDS_CORE_BACKENDS_H_
