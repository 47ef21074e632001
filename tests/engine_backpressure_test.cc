// Backpressure and admission-control tests for ShardedAggregateEngine's
// ProducerSession ingest surface: staged producer waits, finite block_deadline
// deadlines (zero = one non-blocking attempt), overload counters, and the
// stopped-engine ingest contract (the regression that used to spin a
// producer forever against a ring whose writer had already exited).
//
// The writer is stalled *deterministically* through RunOnWriterForTest: a
// helper thread posts a command that blocks the shard writer on an atomic
// until the test releases it — no sleeps-as-synchronization.
#include "engine/engine.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/sliding_window.h"
#include "engine/producer_session.h"
#include "engine/registry.h"
#include "engine_test_util.h"

namespace tds {
namespace {

AggregateRegistry::Options RegistryOptions(Backend backend, double epsilon) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(backend)
                          .epsilon(epsilon)
                          .Build()
                          .value();
  return options;
}

ShardedAggregateEngine::Options TinyRingOptions() {
  ShardedAggregateEngine::Options options;
  options.registry = RegistryOptions(Backend::kExact, 0.1);
  options.shards = 1;
  options.route_slices = 16;
  options.queue_capacity = 64;
  return options;
}

/// Blocks one shard's writer inside a writer command until Release() (or
/// destruction). While stalled, nothing is drained from that shard's ring,
/// so the test can fill it to capacity deterministically.
class WriterStall {
 public:
  WriterStall(ShardedAggregateEngine& engine, uint32_t shard) {
    std::atomic<bool> entered{false};
    helper_ = std::thread([&engine, shard, this, &entered] {
      engine.RunOnWriterForTest(shard, [this, &entered](AggregateRegistry&) {
        entered.store(true, std::memory_order_release);
        while (!release_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
    });
    // Wait until the writer is actually inside the command: from here on
    // the ring cannot drain until Release().
    while (!entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  void Release() {
    release_.store(true, std::memory_order_release);
    if (helper_.joinable()) helper_.join();
  }

  ~WriterStall() { Release(); }

 private:
  std::atomic<bool> release_{false};
  std::thread helper_;
};

TEST(BackpressureTest, ZeroDeadlineRejectsOnFullRingWithoutBlocking) {
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), TinyRingOptions());
  ASSERT_TRUE(engine.ok());
  {
    WriterStall stall(**engine, 0);

    // Fill the stalled ring one item at a time until admission fails. The
    // zero deadline means each flush makes exactly one push attempt, so
    // this loop is bounded by the ring capacity.
    const KeyedItem item{7, 1, 1};
    uint64_t accepted = 0;
    Status status = Status::OK();
    for (int i = 0; i < 1000 && status.ok(); ++i) {
      status = DeadlineIngest(**engine, {&item, 1},
                              std::chrono::nanoseconds(0));
      if (status.ok()) ++accepted;
    }
    ASSERT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_GE(accepted, 64u);  // at least the configured capacity fit

    // Rejections are counted while the engine keeps running.
    const auto stats = (*engine)->Stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_GE(stats[0].items_rejected, 1u);

    stall.Release();
    ASSERT_TRUE((*engine)->Flush().ok());
    // Every *accepted* item (and only those) was applied.
    EXPECT_EQ((*engine)->ItemsApplied(), accepted);
    EXPECT_DOUBLE_EQ((*engine)->QueryKey(7, 1),
                     static_cast<double>(accepted));
  }
}

TEST(BackpressureTest, SessionDeadlineOutlastsStall) {
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), TinyRingOptions());
  ASSERT_TRUE(engine.ok());
  WriterStall stall(**engine, 0);

  // Fill the ring to the brim, then flush one oversized batch with a
  // generous deadline while another thread releases the writer: the batch
  // must be admitted in full once the writer drains.
  std::vector<KeyedItem> fill(64, KeyedItem{1, 1, 1});
  ASSERT_TRUE(
      DeadlineIngest(**engine, fill, std::chrono::nanoseconds(0)).ok());
  std::vector<KeyedItem> batch(256, KeyedItem{2, 1, 1});
  // The stall must outlast the spin + yield stages even when every yield
  // loses the core for a whole time slice (loaded sanitizer runs), so the
  // producer provably reaches the park stage.
  std::thread releaser([&stall] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stall.Release();
  });
  const Status status =
      DeadlineIngest(**engine, batch, std::chrono::seconds(60));
  releaser.join();
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_DOUBLE_EQ((*engine)->QueryKey(2, 1), 256.0);
  // The producer parked while it waited out the stall (it did not burn a
  // core through a 200ms block), and the stall length was recorded.
  const auto stats = (*engine)->Stats();
  EXPECT_GE(stats[0].park_count, 1u);
  EXPECT_GE(stats[0].max_queue_stall,
            StagedWait::kSpinRounds + StagedWait::kYieldRounds);
}

TEST(BackpressureTest, BlockWithDeadlinePolicyRejectsAndCounts) {
  auto options = TinyRingOptions();
  options.block_deadline = std::chrono::milliseconds(5);
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), options);
  ASSERT_TRUE(engine.ok());
  {
    WriterStall stall(**engine, 0);
    // More items than the stalled ring can hold: the call must give up
    // after ~block_deadline instead of blocking forever.
    // The session inherits the engine-wide policy and deadline.
    std::vector<KeyedItem> batch(1024, KeyedItem{3, 1, 1});
    const Status status = SessionIngest(**engine, batch);
    ASSERT_EQ(status.code(), StatusCode::kUnavailable);
    const auto stats = (*engine)->Stats();
    EXPECT_GE(stats[0].items_rejected, 1u);
    stall.Release();
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  // What was admitted is exactly what was applied — nothing lost inside
  // the engine, nothing duplicated by the rejected retry-less remainder.
  const auto stats = (*engine)->Stats();
  EXPECT_EQ(stats[0].items_applied + stats[0].items_rejected, 1024u);
}

TEST(BackpressureTest, StoppedEngineFailsFastInsteadOfSpinning) {
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), TinyRingOptions());
  ASSERT_TRUE(engine.ok());
  // A session opened before Stop() still holds its engine pointer.
  ProducerSessionOptions session_options;
  session_options.staging_capacity = 2048;
  auto session = (*engine)->NewProducer(session_options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(SessionIngest(**engine, 9, 1, 4).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  (*engine)->Stop();

  // The regression: a batch larger than the ring used to spin forever
  // against writers that had already exited. It must now fail fast, under
  // every policy and deadline.
  std::vector<KeyedItem> batch(1024, KeyedItem{9, 2, 1});
  EXPECT_EQ((*session)->AddBatch(batch).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Add(9, 2, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(SessionIngest(**engine, batch).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      DeadlineIngest(**engine, batch, std::chrono::seconds(60)).code(),
      StatusCode::kFailedPrecondition);
  // Nothing was admitted, so nothing counts as rejected-by-overload.
  EXPECT_EQ((*engine)->Stats()[0].items_rejected, 0u);

  // Flush on a drained stopped engine is a no-op success; Stop is
  // idempotent; reads run inline against the final state.
  EXPECT_TRUE((*engine)->Flush().ok());
  (*engine)->Stop();
  EXPECT_DOUBLE_EQ((*engine)->QueryKey(9, 1), 4.0);
  EXPECT_EQ((*engine)->KeyCount(), 1u);

  // Route mutations on a stopped engine refuse instead of mutating it.
  const std::vector<uint32_t> slices = {0, 1};
  EXPECT_EQ((*engine)->MigrateSlices(slices, 0).code(),
            StatusCode::kFailedPrecondition);
  auto rebalanced = (*engine)->RebalanceIfSkewed();
  EXPECT_FALSE(rebalanced.ok());
}

// Session flushes honor the per-session block_deadline admission
// contract: a flush that cannot place its staged runs before the deadline
// rejects the remainder (dropped + counted), and the session is reusable
// afterwards.
TEST(BackpressureTest, SessionFlushRespectsBlockDeadline) {
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), TinyRingOptions());
  ASSERT_TRUE(engine.ok());

  ProducerSessionOptions session_options;
  session_options.block_deadline = std::chrono::milliseconds(5);
  session_options.staging_capacity = 2048;  // no auto-flush mid-test
  auto session = (*engine)->NewProducer(session_options);
  ASSERT_TRUE(session.ok());
  {
    WriterStall stall(**engine, 0);
    std::vector<KeyedItem> batch(1024, KeyedItem{3, 1, 1});
    ASSERT_TRUE((*session)->AddBatch(batch).ok());
    const Status status = (*session)->Flush();
    ASSERT_EQ(status.code(), StatusCode::kUnavailable);
    // The episode is settled either way: nothing stays staged, the
    // overflow is counted both on the shard and on the session.
    EXPECT_EQ((*session)->staged(), 0u);
    const auto stats = (*session)->stats();
    EXPECT_GE(stats.items_rejected, 1u);
    EXPECT_EQ(stats.items_flushed + stats.items_rejected, 1024u);
    EXPECT_GE((*engine)->Stats()[0].items_rejected, 1u);
    EXPECT_TRUE((*session)->AuditInvariants().ok());
    stall.Release();
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  // Admitted == applied: nothing lost inside the engine, nothing
  // duplicated by the rejected remainder.
  const auto shard_stats = (*engine)->Stats();
  EXPECT_EQ(shard_stats[0].items_applied + shard_stats[0].items_rejected,
            1024u);
  // The session keeps working once pressure clears.
  ASSERT_TRUE((*session)->Add(3, 2, 1).ok());
  ASSERT_TRUE((*session)->Flush().ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  const auto totals = (*engine)->SessionTotals();
  EXPECT_GE(totals.flush_stalls, 1u);
}

TEST(BackpressureTest, CreateValidatesBlockDeadline) {
  auto options = TinyRingOptions();
  options.block_deadline = std::chrono::nanoseconds(-1);
  auto engine = ShardedAggregateEngine::Create(
      SlidingWindowDecay::Create(1 << 20).value(), options);
  EXPECT_FALSE(engine.ok());
}

}  // namespace
}  // namespace tds
