#ifndef TDS_UTIL_ATOMIC_H_
#define TDS_UTIL_ATOMIC_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "modelcheck/hooks.h"

namespace tds {

/// `tds::Atomic<T>` — the ONLY sanctioned atomic type outside this file
/// (tools/tds_lint.py rule `raw-atomic` enforces it, exactly as `raw-mutex`
/// does for src/util/mutex.h). In ordinary builds it is a zero-cost shell
/// over std::atomic<T>: every method is a direct inline delegation with no
/// extra branch or state (the bench `atomics` parity row in
/// BENCH_engine.json guards this at ≥ 0.95×). Under -DTDS_MODELCHECK=ON the
/// same call sites first ask whether the calling thread belongs to an
/// active model-check run (src/modelcheck/sched.h); if so, the operation —
/// with its memory-order metadata — is routed through the controlled
/// scheduler, which models TSO store buffers and happens-before clocks and
/// enumerates interleavings. Threads outside a run (all ordinary tests,
/// even in a modelcheck build) still go straight to std::atomic.
///
/// `InstrumentedAtomic<T>` is the always-instrumented variant for the
/// checker's own fixtures and selftests, so scheduler internals are
/// exercised in every build, not just under the modelcheck flag.
///
/// Values cross the instrumentation boundary as zero-extended uint64
/// images, so T must be trivially copyable and at most 8 bytes — true of
/// every cursor, counter, flag and published pointer in the engine.

namespace atomic_internal {

template <typename T>
inline std::uint64_t Encode(T value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(T));
  return bits;
}

template <typename T>
inline T Decode(std::uint64_t bits) {
  T value;
  std::memcpy(&value, &bits, sizeof(T));
  return value;
}

/// Relaxed raw accessors handed to the scheduler: under the baton exactly
/// one model thread runs, so relaxed real-hardware ops are race-free; the
/// *modeled* ordering semantics live in the scheduler.
template <typename T>
inline std::uint64_t RawLoad(const void* obj) {
  return Encode<T>(
      static_cast<const std::atomic<T>*>(obj)->load(std::memory_order_relaxed));
}

template <typename T>
inline void RawStore(void* obj, std::uint64_t bits) {
  static_cast<std::atomic<T>*>(obj)->store(Decode<T>(bits),
                                           std::memory_order_relaxed);
}

template <typename T>
inline const modelcheck::RawAtomicOps& OpsFor() {
  static constexpr modelcheck::RawAtomicOps kOps{&RawLoad<T>, &RawStore<T>};
  return kOps;
}

template <typename T, bool kInstrumented>
class BasicAtomic {
  static_assert(std::is_trivially_copyable_v<T>,
                "tds::Atomic payloads cross the modelcheck boundary as raw "
                "bytes");
  static_assert(sizeof(T) <= 8,
                "tds::Atomic models values as uint64 images");

 public:
  BasicAtomic() noexcept : v_() {}
  constexpr BasicAtomic(T desired) noexcept : v_(desired) {}  // NOLINT
  BasicAtomic(const BasicAtomic&) = delete;
  BasicAtomic& operator=(const BasicAtomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    if constexpr (kInstrumented) {
      if (modelcheck::InModelRun()) {
        return Decode<T>(modelcheck::HookAtomicLoad(
            const_cast<std::atomic<T>*>(&v_), OpsFor<T>(),
            static_cast<int>(order)));
      }
    }
    return v_.load(order);
  }

  void store(T desired, std::memory_order order = std::memory_order_seq_cst) {
    if constexpr (kInstrumented) {
      if (modelcheck::InModelRun()) {
        modelcheck::HookAtomicStore(&v_, OpsFor<T>(), static_cast<int>(order),
                                    Encode<T>(desired));
        return;
      }
    }
    v_.store(desired, order);
  }

  T exchange(T desired, std::memory_order order = std::memory_order_seq_cst) {
    if constexpr (kInstrumented) {
      if (modelcheck::InModelRun()) {
        std::uint64_t ctx = Encode<T>(desired);
        bool stored = false;
        return Decode<T>(modelcheck::HookAtomicRmw(
            &v_, OpsFor<T>(), static_cast<int>(order),
            [](std::uint64_t, void* c, std::uint64_t* out) {
              *out = *static_cast<std::uint64_t*>(c);
              return true;
            },
            &ctx, &stored));
      }
    }
    return v_.exchange(desired, order);
  }

  T fetch_add(T arg, std::memory_order order = std::memory_order_seq_cst)
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  {
    if constexpr (kInstrumented) {
      if (modelcheck::InModelRun()) {
        std::uint64_t ctx = Encode<T>(arg);
        bool stored = false;
        return Decode<T>(modelcheck::HookAtomicRmw(
            &v_, OpsFor<T>(), static_cast<int>(order),
            [](std::uint64_t cur, void* c, std::uint64_t* out) {
              *out = Encode<T>(static_cast<T>(
                  Decode<T>(cur) +
                  Decode<T>(*static_cast<std::uint64_t*>(c))));
              return true;
            },
            &ctx, &stored));
      }
    }
    return v_.fetch_add(arg, order);
  }

  T fetch_sub(T arg, std::memory_order order = std::memory_order_seq_cst)
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  {
    if constexpr (kInstrumented) {
      if (modelcheck::InModelRun()) {
        std::uint64_t ctx = Encode<T>(arg);
        bool stored = false;
        return Decode<T>(modelcheck::HookAtomicRmw(
            &v_, OpsFor<T>(), static_cast<int>(order),
            [](std::uint64_t cur, void* c, std::uint64_t* out) {
              *out = Encode<T>(static_cast<T>(
                  Decode<T>(cur) -
                  Decode<T>(*static_cast<std::uint64_t*>(c))));
              return true;
            },
            &ctx, &stored));
      }
    }
    return v_.fetch_sub(arg, order);
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    if constexpr (kInstrumented) {
      if (modelcheck::InModelRun()) {
        struct Ctx {
          std::uint64_t expected;
          std::uint64_t desired;
        } ctx{Encode<T>(expected), Encode<T>(desired)};
        bool stored = false;
        const std::uint64_t old = modelcheck::HookAtomicRmw(
            &v_, OpsFor<T>(), static_cast<int>(order),
            [](std::uint64_t cur, void* c, std::uint64_t* out) {
              Ctx* cas = static_cast<Ctx*>(c);
              if (cur != cas->expected) return false;
              *out = cas->desired;
              return true;
            },
            &ctx, &stored);
        if (!stored) expected = Decode<T>(old);
        return stored;
      }
    }
    return v_.compare_exchange_strong(expected, desired, order);
  }

  /// Weak CAS may not fail spuriously under the model (allowed by the
  /// standard: spurious failure is a permission, not a requirement).
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    if constexpr (kInstrumented) {
      if (modelcheck::InModelRun()) {
        return compare_exchange_strong(expected, desired, order);
      }
    }
    return v_.compare_exchange_weak(expected, desired, order);
  }

 private:
  std::atomic<T> v_;
};

}  // namespace atomic_internal

#ifdef TDS_MODELCHECK
template <typename T>
using Atomic = atomic_internal::BasicAtomic<T, true>;
#else
template <typename T>
using Atomic = atomic_internal::BasicAtomic<T, false>;
#endif

/// Always-instrumented variant: model-check fixtures and scheduler
/// selftests use it so they explore real interleavings in every build.
template <typename T>
using InstrumentedAtomic = atomic_internal::BasicAtomic<T, true>;

/// Standalone fence, same contract as the wrappers: plain
/// std::atomic_thread_fence in production, a modeled scheduling point
/// (seq_cst drains the TSO store buffer) inside a model run.
inline void AtomicFence(std::memory_order order) {
#ifdef TDS_MODELCHECK
  if (modelcheck::InModelRun()) {
    modelcheck::HookFence(static_cast<int>(order));
    return;
  }
#endif
  std::atomic_thread_fence(order);
}

/// Always-instrumented fence for model fixtures (see InstrumentedAtomic).
inline void InstrumentedAtomicFence(std::memory_order order) {
  if (modelcheck::InModelRun()) {
    modelcheck::HookFence(static_cast<int>(order));
    return;
  }
  std::atomic_thread_fence(order);
}

}  // namespace tds

#endif  // TDS_UTIL_ATOMIC_H_
