#ifndef TDS_CORE_DECAYED_AGGREGATE_H_
#define TDS_CORE_DECAYED_AGGREGATE_H_

#include <cstdint>
#include <span>
#include <string>

#include "decay/decay_function.h"
#include "stream/stream.h"
#include "util/common.h"
#include "util/status.h"

namespace tds {

/// A maintained time-decaying sum (paper Problem 2.1, DSP): after a stream
/// of (tick, value) updates, Query(T) estimates
///   S_g(T) = sum_i f_i * g(AgeAt(t_i, T)).
/// With 0/1 values this is the Decaying Count Problem (DCP). Implementations
/// trade storage for approximation quality; StorageBits() reports the
/// paper's bit metric for the current state.
///
/// Time-handling contract:
///  * Update / UpdateBatch / Advance are *mutations* and must be called with
///    non-decreasing ticks by the single owning writer.
///  * Query(now) is const and side-effect free: it never advances clocks,
///    triggers expiry, or re-seeds RNG state, so any number of readers may
///    query a quiescent structure concurrently (e.g. the engine's snapshot
///    read path). `now` must be >= the last mutation tick; repeated queries
///    at one `now` return the same value.
///  * Advance(now) folds elapsed time into the structure explicitly:
///    expiry, bucket cascades, register decay. Callers that previously
///    relied on Query's hidden mutation for storage reclamation should call
///    Advance(now) first.
///
/// Single-threaded ("thread-compatible") by design, like the streaming
/// model itself: one writer owns the structure; concurrent const access is
/// safe only while no writer is active.
///
/// Each implementation owns one backend state and its constants: the
/// Standalone<State> template (core/standalone.h; e.g. CehDecayedSum is
/// Standalone<CehState>), or WbmhDecayedSum, which also owns its layout.
/// The multi-key AggregateRegistry keeps those same state types inline in
/// its per-key entries with one copy of the constants, and no object per
/// key; copying an implementation copies its state deeply.
class DecayedAggregate {
 public:
  virtual ~DecayedAggregate() = default;

  /// Adds `value` unit items arriving at tick t. Ticks must be
  /// non-decreasing across calls; multiple updates per tick are allowed.
  virtual void Update(Tick t, uint64_t value) = 0;

  /// Batch update: equivalent to calling Update(item.t, item.value) for each
  /// item in order. Items must be tick-sorted (non-decreasing) and start at
  /// or after the last mutation tick. Backends with amortizable structural
  /// work (EH/CEH, WBMH) coalesce same-tick items and run cascades/merges
  /// once per batch — with results bit-identical to the per-item sequence.
  virtual void UpdateBatch(std::span<const StreamItem> items) = 0;

  /// Explicitly advances internal clocks to `now` (>= the last mutation
  /// tick): runs expiry, merges, and register decay. Equivalent to
  /// Update(now, 0) for every backend.
  virtual void Advance(Tick now) = 0;

  /// Estimated decayed sum at time `now` (>= the last mutation tick).
  /// Const and side-effect free; see the class comment for the contract.
  virtual double Query(Tick now) const = 0;

  /// The structure's clock: the last mutation tick (or the decoded one).
  virtual Tick now() const = 0;

  /// Storage consumed under the paper's bit-accounting metric.
  virtual size_t StorageBits() const = 0;

  /// Implementation name for reports, e.g. "CEH" or "WBMH".
  virtual std::string Name() const = 0;

  /// The decay function being maintained.
  virtual const DecayPtr& decay() const = 0;

  /// Writes the snapshot payload EncodeDecayedSum frames (core/snapshot.h).
  virtual Status EncodeState(class Encoder& encoder) const = 0;
};

}  // namespace tds

#endif  // TDS_CORE_DECAYED_AGGREGATE_H_
