#include "engine/producer_session.h"

#include <algorithm>
#include <utility>

#include "util/audit.h"
#include "util/check.h"
#include "util/deadline.h"

namespace tds {

StatusOr<std::unique_ptr<ProducerSession>> ShardedAggregateEngine::NewProducer(
    const ProducerSessionOptions& options) {
  if (options.staging_capacity == 0) {
    return Status::InvalidArgument("staging_capacity must be positive");
  }
  if (options.block_deadline.has_value() &&
      *options.block_deadline < std::chrono::nanoseconds::zero()) {
    return Status::InvalidArgument("block_deadline must be non-negative");
  }
  if (stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine is stopped");
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<ProducerSession>(
      new ProducerSession(this, options));
}

ProducerSession::ProducerSession(ShardedAggregateEngine* engine,
                                 const ProducerSessionOptions& options)
    : engine_(engine),
      options_(options),
      policy_(options.backpressure.value_or(engine->options().backpressure)),
      block_deadline_(
          options.block_deadline.value_or(engine->options().block_deadline)) {
  runs_.resize(engine->shards());
  // Offered-load heat only matters where the rebalancer can act on it:
  // multi-shard engines.
  if (engine->shards() > 1) {
    slice_counts_.assign(engine->route_slices(), 0);
  }
}

ProducerSession::~ProducerSession() {
  if (staged_now_ > 0) {
    (void)Flush();
  }
  engine_->sessions_closed_.fetch_add(1, std::memory_order_relaxed);
}

Status ProducerSession::Add(uint64_t key, Tick t, uint64_t value) {
  const KeyedItem item{key, t, value};
  const Status status = AddBatch({&item, 1});
  TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

Status ProducerSession::AddBatch(std::span<const KeyedItem> items) {
  if (items.empty()) return Status::OK();
  // Sticky stop flag: fail fast instead of staging items that can never
  // be flushed (the flush path re-checks under the fence regardless).
  if (engine_->stop_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine is stopped");
  }
  size_t i = 0;
  while (i < items.size()) {
    if (staged_now_ >= options_.staging_capacity) {
      const Status status = Flush();
      if (!status.ok()) return status;
      continue;
    }
    if (table_ == nullptr) table_ = engine_->CurrentRoute();
    const size_t take = std::min(options_.staging_capacity - staged_now_,
                                 items.size() - i);
    const std::span<const KeyedItem> chunk = items.subspan(i, take);
    if (runs_.size() == 1) {
      runs_[0].insert(runs_[0].end(), chunk.begin(), chunk.end());
    } else {
      const auto& shard_of_slice = table_->shard_of_slice;
      const auto slice_count =
          static_cast<uint32_t>(shard_of_slice.size());
      for (const KeyedItem& item : chunk) {
        const uint32_t slice =
            ShardedAggregateEngine::SliceForKey(item.key, slice_count);
        runs_[shard_of_slice[slice]].push_back(item);
        ++slice_counts_[slice];
      }
    }
    staged_now_ += take;
    stats_.items_staged += take;
    engine_->session_staged_.fetch_add(take, std::memory_order_relaxed);
    i += take;
  }
  if (staged_now_ >= options_.staging_capacity) {
    return Flush();
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

Status ProducerSession::Flush() {
  if (staged_now_ == 0) return Status::OK();
  const Deadline deadline =
      policy_ == BackpressurePolicy::kBlockWithDeadline
          ? Deadline::After(block_deadline_)
          : Deadline::Infinite();
  bool stalled = false;
  const Status enter = engine_->EnterFlush(deadline, &stalled);
  if (!enter.ok()) {
    if (enter.code() == StatusCode::kUnavailable) {
      // Admission control rejected the episode wholesale: same contract
      // as a ring-full deadline miss — drop, count, report.
      const uint64_t dropped = DropStagedAsRejected();
      stats_.items_rejected += dropped;
      if (stalled) {
        ++stats_.flush_stalls;
        engine_->session_flush_stalls_.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
    }
    // kFailedPrecondition (stopped engine): items stay staged — nothing
    // was admitted, nothing is counted.
    TDS_AUDIT_MUTATION(AuditInvariants());
    return enter;
  }
  // The fence is held from here on: the route table cannot change until
  // ExitFlush, and a migration waits for us before moving any key.
  const auto table = engine_->CurrentRoute();
  if (table_ == nullptr || table->generation != table_->generation) {
    // A migration published a newer epoch since these items were staged:
    // re-group them so no run lands on a stale shard.
    RepartitionStaged(*table);
    table_ = table;
  }
  Status result = Status::OK();
  uint64_t rejected = 0;
  for (uint32_t s = 0; s < runs_.size(); ++s) {
    std::vector<KeyedItem>& run = runs_[s];
    if (run.empty()) continue;
    ShardedAggregateEngine::PushCounters counters;
    // Admission is per shard: one shard rejecting does not stop the other
    // shards' runs from landing.
    const Status status = engine_->PushToShard(
        *engine_->shards_[s], run, policy_, deadline, &counters);
    rejected += counters.rejected;
    stalled = stalled || counters.stalled;
    if (result.ok() && !status.ok()) result = status;
    run.clear();
  }
  engine_->ExitFlush();
  PublishSliceCounts();
  const uint64_t flushed = staged_now_ - rejected;
  staged_now_ = 0;
  stats_.items_flushed += flushed;
  stats_.items_rejected += rejected;
  engine_->session_flushed_.fetch_add(flushed, std::memory_order_relaxed);
  if (stalled) {
    ++stats_.flush_stalls;
    engine_->session_flush_stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
  return result;
}

void ProducerSession::RepartitionStaged(
    const ShardedAggregateEngine::RouteTable& table) {
  scratch_.clear();
  for (std::vector<KeyedItem>& run : runs_) {
    scratch_.insert(scratch_.end(), run.begin(), run.end());
    run.clear();
  }
  // Restore a valid per-shard order: concatenating runs loses the global
  // arrival order, but a *stable* sort by tick rebuilds one — per-key
  // state only depends on that key's own subsequence, and a key's items
  // all sat in the same old run (same slice), so stability preserves
  // their relative order; cross-key order within a tick never affects
  // registry state. The result satisfies the non-decreasing-tick contract
  // on every new run.
  std::stable_sort(scratch_.begin(), scratch_.end(),
                   [](const KeyedItem& a, const KeyedItem& b) {
                     return a.t < b.t;
                   });
  const auto slice_count =
      static_cast<uint32_t>(table.shard_of_slice.size());
  for (const KeyedItem& item : scratch_) {
    runs_[table.shard_of_slice[ShardedAggregateEngine::SliceForKey(
               item.key, slice_count)]]
        .push_back(item);
  }
  scratch_.clear();
}

uint64_t ProducerSession::DropStagedAsRejected() {
  uint64_t dropped = 0;
  for (uint32_t s = 0; s < runs_.size(); ++s) {
    std::vector<KeyedItem>& run = runs_[s];
    if (run.empty()) continue;
    engine_->shards_[s]->items_rejected.fetch_add(
        run.size(), std::memory_order_relaxed);
    dropped += run.size();
    run.clear();
  }
  PublishSliceCounts();
  staged_now_ = 0;
  return dropped;
}

void ProducerSession::PublishSliceCounts() {
  if (slice_counts_.empty()) return;
  for (uint32_t s = 0; s < slice_counts_.size(); ++s) {
    if (slice_counts_[s] == 0) continue;
    engine_->AddSliceIngest(s, slice_counts_[s]);
    slice_counts_[s] = 0;
  }
}

ProducerSession::Stats ProducerSession::stats() const {
  Stats out = stats_;
  out.staged_now = staged_now_;
  return out;
}

Status ProducerSession::AuditInvariants() const {
  size_t total = 0;
  for (const std::vector<KeyedItem>& run : runs_) total += run.size();
  if (total != staged_now_) {
    return Status::FailedPrecondition(
        "session staging buffers disagree with staged()");
  }
  if (!slice_counts_.empty()) {
    uint64_t counted = 0;
    for (const uint64_t c : slice_counts_) counted += c;
    if (counted != staged_now_) {
      return Status::FailedPrecondition(
          "session slice offered-load counts disagree with staged()");
    }
  }
  if (stats_.items_staged <
      stats_.items_flushed + stats_.items_rejected) {
    return Status::FailedPrecondition("session item counters are inconsistent");
  }
  return Status::OK();
}

}  // namespace tds
