#ifndef TDS_UTIL_DEADLINE_H_
#define TDS_UTIL_DEADLINE_H_

#include <algorithm>
#include <chrono>

namespace tds {

/// A point in time that a blocking wait must not overrun.
///
/// Infinite() never expires and never touches a clock; After(budget)
/// snapshots steady_clock::now() once at construction and compares against
/// it on Expired(). This class lives in src/util so that src/engine — whose
/// lint rules forbid naming a clock (decayed-aggregate ticks must come from
/// the caller) — can carry and test admission-control deadlines as opaque
/// values.
class Deadline {
 public:
  /// Never expires; Expired() is a constant false with no clock read, so
  /// infinite-deadline wait loops stay syscall-free on the fast path.
  static Deadline Infinite() { return Deadline(); }

  /// Expires `budget` from now (a non-positive budget is already expired).
  /// nanoseconds::max() is no budget at all: Infinite().
  static Deadline After(std::chrono::nanoseconds budget) {
    if (budget == std::chrono::nanoseconds::max()) return Infinite();
    Deadline d;
    d.infinite_ = false;
    d.at_ = std::chrono::steady_clock::now() + budget;
    return d;
  }

  bool infinite() const { return infinite_; }

  bool Expired() const {
    return !infinite_ && std::chrono::steady_clock::now() >= at_;
  }

  /// Time left, clamped to [0, cap]. Infinite deadlines report `cap`
  /// (callers park in bounded slices and re-check their predicate).
  std::chrono::nanoseconds RemainingCapped(
      std::chrono::nanoseconds cap) const {
    if (infinite_) return cap;
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        at_ - std::chrono::steady_clock::now());
    if (left <= std::chrono::nanoseconds::zero()) {
      return std::chrono::nanoseconds::zero();
    }
    return std::min(cap, left);
  }

 private:
  Deadline() = default;

  bool infinite_ = true;
  std::chrono::steady_clock::time_point at_{};
};

}  // namespace tds

#endif  // TDS_UTIL_DEADLINE_H_
