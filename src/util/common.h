#ifndef TDS_UTIL_COMMON_H_
#define TDS_UTIL_COMMON_H_

#include <cstdint>
#include <limits>

namespace tds {

/// Discrete time tick. The paper (Section 2) assumes time is discretized and
/// obtains integral values; all structures in this library share that model.
/// Ticks are signed so that age arithmetic (`T - t + 1`) never wraps.
using Tick = int64_t;

/// Sentinel for "no horizon": the decay function is positive for all ages.
inline constexpr Tick kInfiniteHorizon = std::numeric_limits<Tick>::max();

/// Best-effort cache-line prefetch with read intent (no-op off GCC/Clang).
#if defined(__GNUC__) || defined(__clang__)
#define TDS_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define TDS_PREFETCH(addr) ((void)sizeof(addr))
#endif

/// Age convention used throughout the library.
///
/// An item that arrived at tick `t`, observed at current time `T >= t`, has
/// age `T - t + 1 >= 1` and weight `g(T - t + 1)`. This matches the worked
/// example in Section 5 of the paper, where an item arriving at time `t`
/// already carries weight `g(1)` at `T = t` (the paper's Section 2 statement
/// `g(T - t_i)` with `t_i < T` is the same sum re-indexed by one tick).
/// Using ages >= 1 also keeps polynomial decay `g(x) = x^{-alpha}` finite.
inline constexpr Tick AgeAt(Tick arrival, Tick now) { return now - arrival + 1; }

}  // namespace tds

#endif  // TDS_UTIL_COMMON_H_
