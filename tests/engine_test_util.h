#ifndef TDS_TESTS_ENGINE_TEST_UTIL_H_
#define TDS_TESTS_ENGINE_TEST_UTIL_H_

#include <chrono>
#include <span>

#include "engine/engine.h"
#include "engine/producer_session.h"
#include "engine/registry.h"
#include "util/status.h"

namespace tds {

/// Stages `items` on a one-shot ProducerSession and flushes them — the
/// canonical way for a test to feed an engine a whole batch. The staging
/// capacity is forced above the batch size, so exactly one flush episode
/// (and one admission deadline) spans the whole batch.
inline Status SessionIngest(ShardedAggregateEngine& engine,
                            std::span<const KeyedItem> items,
                            ProducerSessionOptions options = {}) {
  options.staging_capacity = items.size() + 1;  // one flush, whole batch
  auto session = engine.NewProducer(options);
  if (!session.ok()) return session.status();
  const Status staged = (*session)->AddBatch(items);
  if (!staged.ok()) return staged;
  return (*session)->Flush();
}

inline Status SessionIngest(ShardedAggregateEngine& engine, uint64_t key,
                            Tick t, uint64_t value) {
  const KeyedItem item{key, t, value};
  return SessionIngest(engine, {&item, 1});
}

/// SessionIngest under block_deadline admission control: blocks at
/// most `deadline` for the whole batch (0 = one non-blocking push attempt
/// per shard), then rejects the remainder with kUnavailable and counts it
/// in ShardStats::items_rejected.
inline Status DeadlineIngest(ShardedAggregateEngine& engine,
                             std::span<const KeyedItem> items,
                             std::chrono::nanoseconds deadline) {
  ProducerSessionOptions options;
  options.block_deadline = deadline;
  return SessionIngest(engine, items, options);
}

}  // namespace tds

#endif  // TDS_TESTS_ENGINE_TEST_UTIL_H_
