#ifndef TDS_ENGINE_SPSC_RING_H_
#define TDS_ENGINE_SPSC_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/atomic.h"
#include "util/check.h"

namespace tds {

/// Bounded single-producer / single-consumer ring buffer: the per-shard
/// ingest queue of the sharded aggregation engine. Lock-free — the producer
/// touches only `tail_`, the consumer only `head_`, each published with
/// release semantics and observed with acquire semantics, so pushed items
/// happen-before their pop. Capacity is rounded up to a power of two.
///
/// Exactly one producer thread and one consumer thread at a time; the
/// engine serializes multiple front-end producers with a per-shard mutex
/// *around* the push side, which preserves the SPSC contract.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity) {
    size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1;
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }

  /// Starts both cursors at `start_cursor` instead of 0. The cursors are
  /// free-running uint64 counters (only their difference and low bits are
  /// meaningful), so any start is valid; tests seed near 2^32 and 2^64 to
  /// exercise cursor wraparound without billions of pushes.
  SpscRing(size_t capacity, uint64_t start_cursor) : SpscRing(capacity) {
    head_.store(start_cursor, std::memory_order_relaxed);
    tail_.store(start_cursor, std::memory_order_relaxed);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Producer side: copies up to `n` items in; returns how many fit.
  size_t TryPushN(const T* items, size_t n) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    const size_t free = slots_.size() - static_cast<size_t>(tail - head);
    const size_t count = n < free ? n : free;
    for (size_t i = 0; i < count; ++i) {
      slots_[static_cast<size_t>(tail + i) & mask_] = items[i];
    }
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  bool TryPush(const T& item) { return TryPushN(&item, 1) == 1; }

  /// Consumer side: copies up to `max` items out; returns how many.
  size_t TryPopN(T* out, size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const size_t available = static_cast<size_t>(tail - head);
    const size_t count = max < available ? max : available;
    for (size_t i = 0; i < count; ++i) {
      out[i] = slots_[static_cast<size_t>(head + i) & mask_];
    }
    head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Approximate occupancy (exact only from the owning side).
  size_t SizeApprox() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  /// Producer and consumer cursors on separate cache lines: the producer
  /// writes tail_ and reads head_, the consumer the reverse; padding keeps
  /// the two hot stores from false-sharing one line. Memory orders on both
  /// cursors are the release/acquire minimum, proven by the SpscRing
  /// model-check suite (tests/modelcheck_suites_test.cc).
  alignas(64) Atomic<uint64_t> head_{0};
  alignas(64) Atomic<uint64_t> tail_{0};
};

}  // namespace tds

#endif  // TDS_ENGINE_SPSC_RING_H_
