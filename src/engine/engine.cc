#include "engine/engine.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace tds {
namespace {

/// Items popped per writer iteration; also the natural UpdateBatch size.
constexpr size_t kDrainChunk = 4096;

/// Empty polls a writer burns through before parking — keeps the drain
/// loop hot across momentary gaps (a producer mid-cycle revisits within
/// tens of microseconds; ~20-30ns per poll, two uncontended RMWs) without
/// spinning a core when idle. On a single-core host the ladder collapses
/// to one poll: spinning can never observe new work there, because the
/// producer that would push it is starved for as long as the writer
/// spins. A fruitless park re-parks after a single confirming poll
/// instead of re-climbing the ladder, so an idle writer costs ~one poll
/// per park slice, not kIdlePollRounds of spin per slice.
constexpr uint32_t kIdlePollRounds = 1024;

/// Upper bound on one idle park, and thus on how stale a sub-threshold
/// backlog can get: pushes below half a ring don't wake the writer (see
/// PushToShard), they ride until the slice expires. Deep backlogs, space
/// waiters, drain waiters, and writer requests all wake eagerly, so
/// the slice only prices the background drain cadence — long enough that
/// a fleet of parked writers doesn't preempt a busy producer every few
/// hundred microseconds with timer wakes.
constexpr std::chrono::nanoseconds kWriterParkSlice =
    std::chrono::milliseconds(4);

}  // namespace

ShardedAggregateEngine::ShardedAggregateEngine(const Options& options)
    : options_(options) {}

StatusOr<std::unique_ptr<ShardedAggregateEngine>>
ShardedAggregateEngine::Create(DecayPtr decay, const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  if (options.shards == 0) {
    return Status::InvalidArgument("at least one shard required");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue capacity must be positive");
  }
  if (options.route_slices < options.shards) {
    return Status::InvalidArgument("route_slices must be >= shards");
  }
  if (!(options.rebalance_skew >= 1.0)) {
    return Status::InvalidArgument("rebalance_skew must be >= 1");
  }
  if (options.block_deadline < std::chrono::nanoseconds::zero()) {
    return Status::InvalidArgument("block_deadline must be non-negative");
  }
  std::unique_ptr<ShardedAggregateEngine> engine(
      new ShardedAggregateEngine(options));
  engine->decay_ = decay;
  engine->shards_.reserve(options.shards);
  for (uint32_t i = 0; i < options.shards; ++i) {
    auto shard = std::make_unique<Shard>(options.queue_capacity);
    auto registry = AggregateRegistry::Create(decay, options.registry);
    if (!registry.ok()) return registry.status();
    shard->registry.emplace(std::move(registry).value());
    engine->shards_.push_back(std::move(shard));
  }
  engine->slice_ingest_ = std::vector<Atomic<uint64_t>>(options.route_slices);
  {
    // Initial route: slices round-robin over shards, published as epoch 1.
    // No other thread can hold route_mutex_ yet; locking anyway keeps the
    // guarded-field writes inside the analyzed discipline (uncontended).
    WriterMutexLock route_lock(engine->route_mutex_);
    auto table = std::make_shared<RouteTable>();
    table->generation = 1;
    table->shard_of_slice.resize(options.route_slices);
    for (uint32_t s = 0; s < options.route_slices; ++s) {
      table->shard_of_slice[s] = s % options.shards;
    }
    engine->PublishRoute(std::move(table));
    engine->slice_ingest_seen_.assign(options.route_slices, 0);
  }
  // Registries are fully constructed before any writer starts: thread
  // creation is the happens-before edge that hands each registry to its
  // writer.
  for (auto& shard : engine->shards_) {
    Shard* raw = shard.get();
    raw->writer = std::thread([engine = engine.get(), raw] {
      engine->WriterLoop(*raw);
    });
  }
  return engine;
}

ShardedAggregateEngine::~ShardedAggregateEngine() { Stop(); }

void ShardedAggregateEngine::Stop() {
  {
    WriterMutexLock route_lock(route_mutex_);
    if (stop_.load(std::memory_order_acquire)) return;
    // Quiesce the ingest surface: the raised fence blocks new flush
    // episodes and waits out the in-flight ones (the role the exclusive
    // route lock played when producers still took it), so the drain below
    // terminates. stop_ is published seq_cst *before* the fence drops,
    // and EnterFlush checks stop_ only *after* observing a lowered fence
    // — so in the seq_cst total order any flusher admitted past the
    // fence either pushed before this quiescence (drained below) or sees
    // stop_ and fails fast with kFailedPrecondition instead of queueing
    // onto writers that are about to exit. The check order is
    // load-bearing: the stop-vs-ingest model-check suite proves this
    // pairing and catches both seeded inversions (stop after lower,
    // stop checked before the fence).
    RaiseFence();
    WaitQueuesDrained();
    stop_.store(true, std::memory_order_seq_cst);
    LowerFence();
  }
  for (auto& shard : shards_) {
    WakeWriter(*shard);
    if (shard->writer.joinable()) shard->writer.join();
  }
}

uint32_t ShardedAggregateEngine::SliceForKey(uint64_t key,
                                             uint32_t slice_count) {
  // Re-mix before reducing: the registry's table probe uses SplitMix64(key)
  // directly, so deriving the slice from a differently-salted hash keeps
  // the two partitions independent.
  return static_cast<uint32_t>(HashCombine(key, 0x7364726168735344ull) %
                               slice_count);
}

uint32_t ShardedAggregateEngine::RouteForKey(uint64_t key) const {
  const auto table = CurrentRoute();
  return table->shard_of_slice[SliceForKey(
      key, static_cast<uint32_t>(table->shard_of_slice.size()))];
}

Status ShardedAggregateEngine::EnterFlush(const Deadline& deadline,
                                          bool* stalled) {
  StagedWait wait(BackpressurePolicy::kAdaptive);
  while (true) {
    // seq_cst increment-then-check against RaiseFence's seq_cst
    // set-then-wait (Dekker): if our fence load below reads false, this
    // increment precedes the fence store in the total order, so the
    // fence holder's quiescence wait observes it and blocks until our
    // ExitFlush. Either the migration sees us, or we see the migration —
    // a flush can never run concurrently with a route publish.
    active_flushes_.fetch_add(1, std::memory_order_seq_cst);
    if (!fence_raised_.load(std::memory_order_seq_cst)) {
      // Fence down: check stop_ only AFTER the fence load. Stop()
      // publishes stop_ seq_cst before LowerFence's store, so in the
      // seq_cst total order observing the lowered fence implies
      // observing a concurrent Stop's stop_. Checking stop_ first
      // (the previous order) left a window — found by the
      // stop-vs-ingest model-check suite — where a flusher slipping
      // in between Stop's quiescence check and its stop_ publish read
      // both flags as clear and pushed onto an already-drained
      // engine: an acknowledged ingest whose items no writer would
      // ever apply.
      if (stop_.load(std::memory_order_seq_cst)) {
        ExitFlush();
        return Status::FailedPrecondition("engine is stopped");
      }
      return Status::OK();
    }
    // A migration holds the fence: back out (so its quiescence wait can
    // reach zero) and park until it lowers. Bounded slices via the same
    // StagedWait ladder the rings use; a missed notify costs one slice.
    ExitFlush();
    if (stalled != nullptr) *stalled = true;
    if (!wait.Step(fence_mutex_, fence_cv_, fence_waiters_, deadline)) {
      return Status::Unavailable("route fence held past the deadline");
    }
  }
}

void ShardedAggregateEngine::ExitFlush() {
  // Release: pairs with RaiseFence's seq_cst (hence acquire) load of
  // active_flushes_ — when the fence holder observes the count hit zero,
  // every ring push this episode made happens-before its drain. The
  // decrement itself is not part of the Dekker pairing (that's
  // EnterFlush's increment vs RaiseFence's fence store), so seq_cst buys
  // nothing here.
  active_flushes_.fetch_sub(1, std::memory_order_release);
  // Relaxed: only a raised fence has a quiescence waiter, and waiter
  // registration is advisory — a stale read here at worst skips a notify
  // the waiter's bounded park slice (StagedWait) re-checks past anyway.
  if (fence_raised_.load(std::memory_order_relaxed) &&
      quiesce_waiters_.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(fence_mutex_);
    quiesce_cv_.NotifyAll();
  }
}

void ShardedAggregateEngine::RaiseFence() {
  // seq_cst store-then-load against EnterFlush's seq_cst add-then-load
  // (Dekker): demoting either side admits the store-buffer outcome where
  // the migration reads a stale zero count while the flusher reads a
  // stale lowered fence — a flush racing a route publish. The fence
  // model-check suite proves both the protocol and that exact demotion
  // failure (tests/modelcheck_suites_test.cc, tso mode).
  fence_raised_.store(true, std::memory_order_seq_cst);
  StagedWait wait(BackpressurePolicy::kAdaptive);
  // seq_cst: the Dekker partner load (see above); also acquires the
  // release decrements in ExitFlush, so a zero count means every
  // in-flight episode's pushes are visible to the drain that follows.
  while (active_flushes_.load(std::memory_order_seq_cst) != 0) {
    (void)wait.Step(fence_mutex_, quiesce_cv_, quiesce_waiters_,
                    Deadline::Infinite());
  }
}

void ShardedAggregateEngine::LowerFence() {
  // seq_cst: EnterFlush re-checks stop_ after observing the lowered
  // fence; keeping this store in the seq_cst total order with Stop()'s
  // stop_ publish is what makes "woke to a lowered fence" imply "sees
  // stop_ set" during shutdown (see Stop()).
  fence_raised_.store(false, std::memory_order_seq_cst);
  // Relaxed: waiter registration is advisory; a missed notify costs one
  // bounded fence park slice, not correctness.
  if (fence_waiters_.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(fence_mutex_);
    fence_cv_.NotifyAll();
  }
}

Status ShardedAggregateEngine::PushToShard(Shard& shard,
                                           std::span<const KeyedItem> items,
                                           BackpressurePolicy policy,
                                           const Deadline& deadline,
                                           PushCounters* counters) {
  MutexLock lock(shard.producer_mutex);
  StagedWait wait(policy);
  Status result = Status::OK();
  size_t offset = 0;
  while (offset < items.size()) {
    size_t pushed = 0;
    // The failpoint simulates a full ring (arm it with transient
    // scenarios: a sticky fault plus an infinite deadline would model a
    // writer that never drains, i.e. a genuine hang).
    if (!TDS_FAILPOINT("engine.ring.push")) {
      pushed =
          shard.queue.TryPushN(items.data() + offset, items.size() - offset);
    }
    if (pushed > 0) {
      // seq_cst: one half of the Dekker handshake with the writer's park
      // sequence (see WakeWriter). Same x86 code as release (lock xadd).
      shard.enqueued.fetch_add(pushed, std::memory_order_seq_cst);
      // Lazy wake: a parked writer self-wakes every kWriterParkSlice and
      // drains whatever accumulated, so steady ingest rides the ring and
      // pays no wake syscall per push (on a single-core host every such
      // wake also preempts the producer — per-push wakes there cost more
      // than the apply itself). Wake eagerly only when this push crosses
      // half the ring: the backlog is now deep enough that napping out
      // the slice risks a full ring and a parked producer. The crossing
      // test fires once per fill cycle instead of on every push while
      // the backlog stays deep.
      const size_t depth = shard.queue.SizeApprox();
      const size_t wake_depth = shard.queue.capacity() / 2;
      if (depth >= wake_depth && depth - pushed < wake_depth) {
        WakeWriter(shard);
      }
      offset += pushed;
      wait.OnProgress();
      continue;
    }
    // About to wait for space: the writer must run *now*, so bypass the
    // depth threshold (a parked writer would otherwise stretch this stall
    // to its full park slice).
    WakeWriter(shard);
    if (!wait.Step(shard.space_mutex, shard.space_cv, shard.space_waiters,
                   deadline)) {
      const uint64_t dropped = items.size() - offset;
      shard.items_rejected.fetch_add(dropped, std::memory_order_relaxed);
      if (counters != nullptr) counters->rejected += dropped;
      result = Status::Unavailable("shard queue full past the deadline");
      break;
    }
  }
  shard.park_count.fetch_add(wait.parks(), std::memory_order_relaxed);
  const uint64_t streak = wait.max_streak();
  if (counters != nullptr && wait.stalled()) counters->stalled = true;
  uint64_t prev = shard.max_queue_stall.load(std::memory_order_relaxed);
  while (streak > prev &&
         !shard.max_queue_stall.compare_exchange_weak(
             prev, streak, std::memory_order_relaxed)) {
  }
  return result;
}

Status ShardedAggregateEngine::Flush() {
  for (auto& shard : shards_) {
    const Status status = WaitShardApplied(
        *shard, shard->enqueued.load(std::memory_order_acquire));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ShardedAggregateEngine::WaitShardApplied(Shard& shard,
                                                uint64_t target) {
  StagedWait wait(BackpressurePolicy::kAdaptive);
  while (shard.applied.load(std::memory_order_acquire) < target) {
    if (shard.writer_done.load(std::memory_order_acquire)) {
      // Unreachable through the public API (Stop() drains first); defends
      // against waiting forever on a writer that no longer exists.
      return Status::FailedPrecondition(
          "engine stopped with items still queued");
    }
    // Pushes below the half-ring threshold don't wake the writer; a drain
    // waiter wants the backlog applied now, not at the next park slice.
    WakeWriter(shard);
    (void)wait.Step(shard.drain_mutex, shard.drain_cv, shard.drain_waiters,
                    Deadline::Infinite());
  }
  return Status::OK();
}

void ShardedAggregateEngine::WaitQueuesDrained() {
  for (auto& shard : shards_) {
    // Writers are alive here (Stop() drains before raising stop_, and the
    // other callers refuse stopped engines) and the raised fence keeps
    // new pushes out, so the wait terminates.
    (void)WaitShardApplied(*shard,
                           shard->enqueued.load(std::memory_order_acquire));
  }
}

void ShardedAggregateEngine::WakeWriter(Shard& shard) {
  // Dekker handshake with the writer's park sequence: callers publish
  // work with a seq_cst store/RMW (enqueued, requests_pending, stop_)
  // before this seq_cst load, and the writer
  // stores writer_parked seq_cst before its seq_cst pre-park re-check of
  // those same flags. In the single total order over seq_cst operations
  // at least one side observes the other — either this load sees the
  // writer parked (and notifies), or the writer's re-check sees the work
  // (and skips the wait). Weaker orderings permit the store-buffer
  // outcome where both read stale values and the work sits unnoticed for
  // a whole park slice. seq_cst operations rather than fences because
  // TSan does not model fences (and GCC rejects them under
  // -fsanitize=thread).
  if (!shard.writer_parked.load(std::memory_order_seq_cst)) return;
  // Lock then notify: if the writer is between its pre-park predicate
  // check and the wait, this blocks until the wait begins, so the notify
  // is not lost.
  MutexLock lock(shard.wake_mutex);
  shard.wake_cv.NotifyAll();
}

uint64_t ShardedAggregateEngine::ItemsApplied() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->applied.load(std::memory_order_acquire);
  }
  return total;
}

std::vector<ShardedAggregateEngine::ShardStats>
ShardedAggregateEngine::Stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.live_keys = shard->live_keys.load(std::memory_order_relaxed);
    s.arena_extent = shard->arena_extent.load(std::memory_order_relaxed);
    s.items_applied = shard->applied.load(std::memory_order_acquire);
    const uint64_t enqueued = shard->enqueued.load(std::memory_order_acquire);
    s.queue_depth = enqueued - std::min(enqueued, s.items_applied);
    s.items_rejected = shard->items_rejected.load(std::memory_order_relaxed);
    s.park_count = shard->park_count.load(std::memory_order_relaxed);
    s.max_queue_stall =
        shard->max_queue_stall.load(std::memory_order_relaxed);
    stats.push_back(s);
  }
  return stats;
}

ShardedAggregateEngine::SessionStats
ShardedAggregateEngine::SessionTotals() const {
  SessionStats s;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  s.items_staged = session_staged_.load(std::memory_order_relaxed);
  s.items_flushed = session_flushed_.load(std::memory_order_relaxed);
  s.flush_stalls = session_flush_stalls_.load(std::memory_order_relaxed);
  return s;
}

void ShardedAggregateEngine::UpdateStats(Shard& shard) {
  shard.live_keys.store(shard.registry->KeyCount(),
                        std::memory_order_relaxed);
  shard.arena_extent.store(shard.registry->ArenaExtent(),
                           std::memory_order_relaxed);
}

void ShardedAggregateEngine::WriterLoop(Shard& shard) {
  std::vector<KeyedItem> buffer(kDrainChunk);
  std::vector<WriterRequest*> serving;
  const uint32_t idle_poll_rounds =
      std::thread::hardware_concurrency() > 1 ? kIdlePollRounds : 1;
  uint32_t idle_polls = 0;
  while (true) {
    const size_t n = shard.queue.TryPopN(buffer.data(), buffer.size());
    if (n > 0) {
      idle_polls = 0;
      shard.registry->UpdateBatch({buffer.data(), n});
      // Stats before the applied-counter release: once Flush() observes the
      // count, the occupancy mirrors are current too.
      UpdateStats(shard);
      shard.applied.fetch_add(n, std::memory_order_release);
      // Consumption freed ring space and may have completed a drain: wake
      // parked producers / flushers. Relaxed: registration is advisory —
      // a waiter whose fetch_add races these loads misses one notify and
      // re-checks within its bounded park slice (the documented one-slice
      // missed-wake bound; see StagedWait::Step).
      if (shard.space_waiters.load(std::memory_order_relaxed) > 0) {
        MutexLock lock(shard.space_mutex);
        shard.space_cv.NotifyAll();
      }
      if (shard.drain_waiters.load(std::memory_order_relaxed) > 0) {
        MutexLock lock(shard.drain_mutex);
        shard.drain_cv.NotifyAll();
      }
    }
    // The only per-chunk request check: one exchange, no lock. Acquire
    // pairs with the poster's seq_cst raise, which follows its append, so
    // the swap below sees every request whose raise this exchange read.
    if (shard.requests_pending.exchange(false, std::memory_order_acq_rel)) {
      ServeRequests(shard, serving);
    }
    if (n > 0) continue;  // keep draining while the queue is hot
    if (stop_.load(std::memory_order_acquire)) {
      if (shard.queue.EmptyApprox()) break;
      continue;
    }
    if (++idle_polls < idle_poll_rounds) continue;
    // Idle: park until woken (bounded slice — see kWriterParkSlice). The
    // pre-wait predicate re-check under wake_mutex pairs with WakeWriter's
    // lock-then-notify, closing the check-to-wait window; the seq_cst
    // store + seq_cst re-check loads pair with the posters' seq_cst
    // publish + WakeWriter's seq_cst load (Dekker — see WakeWriter), so a
    // poster that read writer_parked == false is guaranteed visible here.
    // Pending work is judged by enqueued vs applied rather than the ring
    // cursors: enqueued is the counter posters publish with seq_cst order
    // (applied is this thread's own, so relaxed is exact). An item pushed
    // but not yet counted can at worst ride out one park slice — the same
    // bound as any sub-threshold backlog.
    shard.writer_parked.store(true, std::memory_order_seq_cst);
    {
      MutexLock lock(shard.wake_mutex);
      if (shard.enqueued.load(std::memory_order_seq_cst) ==
              shard.applied.load(std::memory_order_relaxed) &&
          !stop_.load(std::memory_order_seq_cst) &&
          !shard.requests_pending.load(std::memory_order_seq_cst)) {
        (void)shard.wake_cv.WaitFor(shard.wake_mutex, kWriterParkSlice);
      }
    }
    // Relaxed: the flag only gates WakeWriter's notify; a staler true
    // causes at most one spurious notify to an already-awake writer.
    shard.writer_parked.store(false, std::memory_order_relaxed);
    // Re-park after one confirming poll rather than resetting to zero: a
    // timed-out slice on an idle engine should not pay the full spin
    // ladder again before the next park.
    idle_polls = idle_poll_rounds;
  }
  // Serve everything still pending, then close the queue in the same
  // critical section: a request posted before `stopped` is served here,
  // one posted after runs inline on its poster — none is lost or run
  // twice, and no poster waits on a writer that is gone.
  {
    MutexLock lock(shard.request_mutex);
    for (WriterRequest* request : shard.requests) {
      request->fn(*shard.registry);
      request->done = true;
    }
    shard.requests.clear();
    UpdateStats(shard);
    shard.stopped = true;
  }
  shard.request_cv.NotifyAll();
  shard.writer_done.store(true, std::memory_order_release);
  // Release any waiter that raced shutdown (their predicates re-check
  // writer_done / the drained counters).
  {
    MutexLock lock(shard.drain_mutex);
  }
  shard.drain_cv.NotifyAll();
  {
    MutexLock lock(shard.space_mutex);
  }
  shard.space_cv.NotifyAll();
}

void ShardedAggregateEngine::ServeRequests(
    Shard& shard, std::vector<WriterRequest*>& batch) {
  {
    MutexLock lock(shard.request_mutex);
    batch.swap(shard.requests);
  }
  if (batch.empty()) return;  // a raise whose request an earlier swap took
  for (WriterRequest* request : batch) request->fn(*shard.registry);
  // Mirrors before `done`: a poster that sees its request done also sees
  // the occupancy a migration or Restore left behind.
  UpdateStats(shard);
  {
    MutexLock lock(shard.request_mutex);
    for (WriterRequest* request : batch) request->done = true;
  }
  batch.clear();
  shard.request_cv.NotifyAll();
}

void ShardedAggregateEngine::Post(Shard& shard, WriterRequest* request) {
  {
    MutexLock lock(shard.request_mutex);
    if (shard.stopped) {
      // The writer has exited: the registry is quiescent, and holding the
      // queue mutex serializes inline requests against each other.
      request->fn(*shard.registry);
      request->done = true;
      return;
    }
    shard.requests.push_back(request);
  }
  shard.requests_pending.store(true, std::memory_order_seq_cst);
  WakeWriter(shard);
}

void ShardedAggregateEngine::Await(Shard& shard,
                                   const WriterRequest& request) {
  MutexLock lock(shard.request_mutex);
  while (!request.done) shard.request_cv.Wait(shard.request_mutex);
}

void ShardedAggregateEngine::RunOnWriter(
    Shard& shard, std::function<void(AggregateRegistry&)> fn) {
  WriterRequest request{std::move(fn)};
  Post(shard, &request);
  Await(shard, request);
}

void ShardedAggregateEngine::RunOnEveryWriter(
    const std::function<void(uint32_t, AggregateRegistry&)>& fn) {
  std::vector<WriterRequest> requests(shards_.size());
  for (uint32_t i = 0; i < shards(); ++i) {
    requests[i].fn = [&fn, i](AggregateRegistry& registry) {
      fn(i, registry);
    };
    Post(*shards_[i], &requests[i]);
  }
  for (uint32_t i = 0; i < shards(); ++i) Await(*shards_[i], requests[i]);
}

void ShardedAggregateEngine::RunOnWriterForTest(
    uint32_t shard, std::function<void(AggregateRegistry&)> fn) {
  TDS_CHECK_LT(shard, shards_.size());
  ReaderMutexLock route_lock(route_mutex_);
  RunOnWriter(*shards_[shard], std::move(fn));
}

std::shared_ptr<const AggregateRegistry> ShardedAggregateEngine::ShardSnapshot(
    uint32_t shard_index) {
  TDS_CHECK_LT(shard_index, shards_.size());
  // The writer only encodes; the decode runs here, off the writer. A codec
  // failure (reachable only via failpoints: the pair is self-inverse on
  // any registry the audits admit) yields null and leaves the shard intact.
  std::string blob;
  Status encoded = Status::OK();
  RunOnWriter(*shards_[shard_index], [&](AggregateRegistry& registry) {
    encoded = registry.EncodeState(&blob);
  });
  if (!encoded.ok()) return nullptr;
  auto decoded = AggregateRegistry::Decode(decay_, options_.registry, blob);
  if (!decoded.ok()) return nullptr;
  return std::make_shared<const AggregateRegistry>(std::move(decoded).value());
}

StatusOr<MergedSnapshot> ShardedAggregateEngine::Snapshot() {
  // Shared route lock across the whole gather: a migration between two
  // shard captures would otherwise double-count (or drop) the moving keys.
  // Concurrent flushes are fine — the cut is whatever each writer has
  // applied — so the fence is not touched. Every writer encodes at once.
  std::vector<std::string> blobs(shards_.size());
  std::vector<Status> encoded(shards_.size());
  {
    ReaderMutexLock route_lock(route_mutex_);
    RunOnEveryWriter([&](uint32_t i, AggregateRegistry& registry) {
      encoded[i] = registry.EncodeState(&blobs[i]);
    });
  }
  for (const Status& status : encoded) {
    if (!status.ok()) return status;
  }
  // Decode + fold outside the lock: the blobs are already a consistent cut.
  return MergedSnapshot::FromShardBlobs(decay_, options_.registry, blobs);
}

Status ShardedAggregateEngine::EnableCheckpointTracking() {
  ReaderMutexLock route_lock(route_mutex_);
  if (stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "EnableCheckpointTracking on a stopped engine");
  }
  RunOnEveryWriter([](uint32_t, AggregateRegistry& registry) {
    registry.EnableCheckpointTracking();
  });
  ckpt_tracking_.store(true, std::memory_order_release);
  return Status::OK();
}

Status ShardedAggregateEngine::CaptureCheckpointDeltas(
    std::span<const uint64_t> since,
    std::vector<ShardCheckpointDelta>* out) {
  TDS_CHECK(out != nullptr);
  if (!checkpoint_tracking()) {
    return Status::FailedPrecondition(
        "CaptureCheckpointDeltas requires EnableCheckpointTracking");
  }
  if (since.size() != shards_.size()) {
    return Status::InvalidArgument(
        "CaptureCheckpointDeltas: one since-epoch per shard required");
  }
  out->clear();
  out->resize(shards_.size());
  // Shared route lock across every shard capture — one route-table cut, so
  // a migration's donor-eviction and receiver-update always land in the
  // same manifest generation (migrations take the lock exclusively).
  ReaderMutexLock route_lock(route_mutex_);
  if (stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "CaptureCheckpointDeltas on a stopped engine");
  }
  // Every shard captures, even after another failed: epochs a failed pass
  // already opened are harmless (the caller's committed watermarks don't
  // move), and a full pass keeps shards in lockstep.
  std::vector<Status> captured(shards_.size());
  RunOnEveryWriter([&](uint32_t i, AggregateRegistry& registry) {
    (*out)[i].shard = i;
    captured[i] = registry.CaptureCheckpointDelta(since[i], &(*out)[i].delta);
  });
  for (const Status& status : captured) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

double ShardedAggregateEngine::QueryKey(uint64_t key, Tick now) {
  // The shared route lock pins the key's shard for the duration (a
  // migration between the route read and the read request would ask a
  // shard that no longer holds the key).
  ReaderMutexLock route_lock(route_mutex_);
  double sum = 0.0;
  RunOnWriter(*shards_[RouteForKey(key)], [&](AggregateRegistry& registry) {
    sum = registry.Query(key, std::max(now, registry.now()));
  });
  return sum;
}

double ShardedAggregateEngine::QueryTotal(Tick now) {
  std::vector<double> sums(shards_.size());
  {
    ReaderMutexLock route_lock(route_mutex_);
    RunOnEveryWriter([&](uint32_t i, AggregateRegistry& registry) {
      sums[i] = registry.QueryTotal(std::max(now, registry.now()));
    });
  }
  double total = 0.0;
  for (const double sum : sums) total += sum;
  return total;
}

size_t ShardedAggregateEngine::KeyCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->live_keys.load(std::memory_order_relaxed);
  }
  return total;
}

Status ShardedAggregateEngine::MoveSlicesLocked(
    uint32_t from_index, uint32_t to_index,
    const std::vector<uint32_t>& moving) {
  if (moving.empty() || from_index == to_index) return Status::OK();
  TDS_FAILPOINT_RETURN("engine.migrate");
  const auto table = CurrentRoute();
  const auto slice_count =
      static_cast<uint32_t>(table->shard_of_slice.size());
  std::vector<char> member(slice_count, 0);
  for (const uint32_t slice : moving) {
    TDS_CHECK_LT(slice, slice_count);
    TDS_CHECK(table->shard_of_slice[slice] == from_index);
    member[slice] = 1;
  }
  Shard& donor = *shards_[from_index];
  Shard& receiver = *shards_[to_index];
  // Both registry mutations run on their owner writer threads — the
  // registries are never touched from this (caller) thread. The successor
  // table publishes only after both succeed, so a failure at either step
  // leaves (or restores) every key on the shard its route entry names.
  StatusOr<AggregateRegistry> extracted =
      Status::FailedPrecondition("extraction did not run");
  RunOnWriter(donor, [&](AggregateRegistry& registry) {
    extracted = registry.ExtractIf([&](uint64_t key) {
      return member[SliceForKey(key, slice_count)] != 0;
    });
  });
  // ExtractIf fails only before moving anything (entry checks and the
  // "registry.extract" failpoint), so the donor is intact on error.
  if (!extracted.ok()) return extracted.status();
  Status merge_status = Status::OK();
  RunOnWriter(receiver, [&](AggregateRegistry& registry) {
    merge_status = registry.MergeFrom(std::move(extracted).value());
  });
  if (!merge_status.ok()) {
    // MergeFrom refused before mutating (its contract), so `extracted`
    // still owns every moving key: merge it back into the donor with
    // failpoints suppressed — recovery must not be re-injected into.
    RunOnWriter(donor, [&](AggregateRegistry& registry) {
      failpoint::SuppressionScope suppress;
      const Status undo = registry.MergeFrom(std::move(extracted).value());
      TDS_CHECK_MSG(undo.ok(), "migration rollback failed");
    });
    return merge_status;
  }
  auto next = std::make_shared<RouteTable>();
  next->generation = table->generation + 1;
  next->shard_of_slice = table->shard_of_slice;
  for (const uint32_t slice : moving) {
    next->shard_of_slice[slice] = to_index;
  }
  PublishRoute(std::move(next));
  rebalances_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedAggregateEngine::MigrateSlices(std::span<const uint32_t> slices,
                                             uint32_t to_shard) {
  if (to_shard >= shards()) {
    return Status::InvalidArgument("target shard out of range");
  }
  WriterMutexLock route_lock(route_mutex_);
  if (stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine is stopped");
  }
  const auto slice_count = route_slices();
  for (const uint32_t slice : slices) {
    if (slice >= slice_count) {
      return Status::InvalidArgument("route slice out of range");
    }
  }
  // Fence up: in-flight flushes finish, new ones wait, the drain below is
  // then final — no staged run can land between drain and publish.
  RaiseFence();
  WaitQueuesDrained();
  Status status = Status::OK();
  // Group the requested slices by current owner and move per owner. Each
  // successful move publishes a successor table, so re-read per owner.
  for (uint32_t owner = 0; owner < shards() && status.ok(); ++owner) {
    if (owner == to_shard) continue;
    const auto table = CurrentRoute();
    std::vector<uint32_t> moving;
    for (const uint32_t slice : slices) {
      if (table->shard_of_slice[slice] == owner) moving.push_back(slice);
    }
    status = MoveSlicesLocked(owner, to_shard, moving);
  }
  LowerFence();
  return status;
}

StatusOr<bool> ShardedAggregateEngine::RebalanceIfSkewed() {
  WriterMutexLock route_lock(route_mutex_);
  if (stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine is stopped");
  }
  if (shards() < 2) return false;
  // Fence + drain so the live-key stats are exact and no in-flight item
  // targets a slice about to move.
  RaiseFence();
  StatusOr<bool> outcome = RebalanceLocked();
  LowerFence();
  return outcome;
}

StatusOr<bool> ShardedAggregateEngine::RebalanceLocked() {
  WaitQueuesDrained();
  uint32_t donor_index = 0;
  uint32_t receiver_index = 0;
  for (uint32_t i = 1; i < shards(); ++i) {
    const uint64_t keys = shards_[i]->live_keys.load(std::memory_order_relaxed);
    if (keys > shards_[donor_index]->live_keys.load(std::memory_order_relaxed)) {
      donor_index = i;
    }
    if (keys <
        shards_[receiver_index]->live_keys.load(std::memory_order_relaxed)) {
      receiver_index = i;
    }
  }
  const uint64_t donor_keys =
      shards_[donor_index]->live_keys.load(std::memory_order_relaxed);
  const uint64_t receiver_keys =
      shards_[receiver_index]->live_keys.load(std::memory_order_relaxed);
  if (donor_index == receiver_index ||
      donor_keys < options_.rebalance_min_keys ||
      static_cast<double>(donor_keys) <
          options_.rebalance_skew * static_cast<double>(receiver_keys)) {
    return false;
  }
  // Per-slice live-key histogram of the donor, computed on its writer.
  const auto table = CurrentRoute();
  const auto slice_count =
      static_cast<uint32_t>(table->shard_of_slice.size());
  std::vector<uint64_t> slice_keys(slice_count, 0);
  RunOnWriter(*shards_[donor_index], [&](AggregateRegistry& registry) {
    registry.ForEachKey([&](uint64_t key, Tick, const DecayedAggregate&) {
      ++slice_keys[SliceForKey(key, slice_count)];
    });
  });
  // Offered-load heat since the last selection: sessions publish per-slice
  // ingest counts at flush; the window diff ranks *hot* slices first so a
  // small slice taking most of the traffic moves before a populous cold
  // one (live keys break rate ties, e.g. between slices with no ingest
  // since the last selection).
  std::vector<uint64_t> slice_rate(slice_count, 0);
  for (uint32_t s = 0; s < slice_count; ++s) {
    slice_rate[s] =
        slice_ingest_[s].load(std::memory_order_relaxed) -
        slice_ingest_seen_[s];
  }
  std::vector<uint32_t> candidates;
  for (uint32_t s = 0; s < slice_count; ++s) {
    if (table->shard_of_slice[s] == donor_index && slice_keys[s] > 0) {
      candidates.push_back(s);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](uint32_t a, uint32_t b) {
              if (slice_rate[a] != slice_rate[b]) {
                return slice_rate[a] > slice_rate[b];
              }
              if (slice_keys[a] != slice_keys[b]) {
                return slice_keys[a] > slice_keys[b];
              }
              return a < b;
            });
  // Greedy hottest-first selection: accept a slice while it still shrinks
  // the donor/receiver live-key gap (moving m keys changes the gap by
  // -2m, so a slice helps iff 2*moved + its_keys < gap) — the balance
  // arithmetic stays on keys, the *order* is by heat.
  const uint64_t gap = donor_keys - receiver_keys;
  std::vector<uint32_t> moving;
  uint64_t moved = 0;
  for (const uint32_t s : candidates) {
    if (2 * moved + slice_keys[s] < gap) {
      moving.push_back(s);
      moved += slice_keys[s];
    }
  }
  if (moving.empty()) return false;
  // Consume the observed window only when a migration actually runs: the
  // next selection then ranks by fresh heat, while fruitless trigger
  // checks keep accumulating.
  for (uint32_t s = 0; s < slice_count; ++s) {
    slice_ingest_seen_[s] = slice_ingest_[s].load(std::memory_order_relaxed);
  }
  const Status status = MoveSlicesLocked(donor_index, receiver_index, moving);
  if (!status.ok()) return status;
  return true;
}

Status ShardedAggregateEngine::Restore(MergedSnapshot snapshot) {
  WriterMutexLock route_lock(route_mutex_);
  if (stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine is stopped");
  }
  RaiseFence();
  const Status status = RestoreLocked(std::move(snapshot));
  LowerFence();
  return status;
}

Status ShardedAggregateEngine::RestoreLocked(MergedSnapshot snapshot) {
  WaitQueuesDrained();
  for (const auto& shard : shards_) {
    if (shard->applied.load(std::memory_order_acquire) != 0 ||
        shard->live_keys.load(std::memory_order_relaxed) != 0) {
      return Status::FailedPrecondition(
          "Restore requires a fresh engine (no items applied, no live keys)");
    }
  }
  AggregateRegistry full = std::move(snapshot).ReleaseRegistry();
  const auto table = CurrentRoute();
  const auto slice_count =
      static_cast<uint32_t>(table->shard_of_slice.size());
  for (uint32_t i = 0; i < shards(); ++i) {
    StatusOr<AggregateRegistry> part = full.ExtractIf([&](uint64_t key) {
      return table->shard_of_slice[SliceForKey(key, slice_count)] == i;
    });
    if (!part.ok()) return part.status();
    if (part->KeyCount() == 0) continue;
    Status merged = Status::OK();
    RunOnWriter(*shards_[i], [&](AggregateRegistry& registry) {
      merged = registry.MergeFrom(std::move(part).value());
    });
    // A mid-restore failure leaves the engine partially loaded: callers
    // (RestoreFromCheckpointLog) treat any Restore error as "discard the
    // engine and retry on a fresh one".
    if (!merged.ok()) return merged;
  }
  return Status::OK();
}

}  // namespace tds
