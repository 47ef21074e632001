#ifndef TDS_ENGINE_WAIT_STRATEGY_H_
#define TDS_ENGINE_WAIT_STRATEGY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/atomic.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tds {

/// The staged wait ladder — and the ONLY sanctioned retry-wait loop in
/// src/engine (tools/tds_lint.py rule `spin-loop` rejects yield/spin
/// retries anywhere else in the engine; waits either go through this class
/// or park on a CondVar).
///
/// Usage: attempt the operation; on failure call Step(), which escalates
/// spin → yield → bounded CondVar park and returns false once the deadline
/// has expired; on success call OnProgress() to reset the ladder.
///
/// Parks are bounded slices (kParkSlice) rather than open-ended waits:
/// waiter registration (`waiters`) is advisory, so a notify that races a
/// waiter's registration may be missed — the slice bounds the resulting
/// stall instead of requiring a lock-step handshake on the hot path.
class StagedWait {
 public:
  static constexpr uint32_t kSpinRounds = 64;
  static constexpr uint32_t kYieldRounds = 16;
  static constexpr std::chrono::nanoseconds kParkSlice =
      std::chrono::milliseconds(1);

  /// One escalation step after a failed attempt. Returns true to retry,
  /// false once `deadline` is expired (give up; nothing waited on then).
  bool Step(Mutex& mu, CondVar& cv, Atomic<uint32_t>& waiters,
            const Deadline& deadline) TDS_EXCLUDES(mu) {
    if (deadline.Expired()) return false;
    const uint64_t round = ++rounds_;
    if (round <= kSpinRounds) return true;  // hot retry, no syscall
    if (round <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
      return true;
    }
    // Relaxed: waiter registration is advisory by design. If the writer's
    // load of `waiters` misses this increment, the notify is skipped and
    // this park simply runs out its bounded kParkSlice — the documented
    // one-slice missed-wake bound (proven in the park/wake model-check
    // suite). No release/acquire edge is needed because no data is
    // published through the counter.
    waiters.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mu);
      (void)cv.WaitFor(mu, deadline.RemainingCapped(kParkSlice));
    }
    waiters.fetch_sub(1, std::memory_order_relaxed);
    ++parks_;
    return !deadline.Expired();
  }

  /// The attempt succeeded (or partially progressed): reset the ladder so
  /// the next stall starts back at the spin stage.
  void OnProgress() {
    max_streak_ = std::max(max_streak_, rounds_);
    rounds_ = 0;
  }

  /// CondVar parks taken so far (ShardStats::park_count).
  uint64_t parks() const { return parks_; }

  /// Whether this wait ever had to step at all — the "did the episode
  /// stall" bit session flush stats record (parks or any failed-attempt
  /// streak count).
  bool stalled() const { return parks_ > 0 || max_streak() > 0; }

  /// Longest run of consecutive failed attempts — a unitless stall measure
  /// (ShardStats::max_queue_stall) that needs no clock in the engine.
  uint64_t max_streak() const { return std::max(max_streak_, rounds_); }

 private:
  uint64_t rounds_ = 0;
  uint64_t parks_ = 0;
  uint64_t max_streak_ = 0;
};

}  // namespace tds

#endif  // TDS_ENGINE_WAIT_STRATEGY_H_
