#include "histogram/exponential_histogram.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/ceh.h"
#include "core/coarse_ceh.h"
#include "core/factory.h"
#include "decay/polynomial.h"
#include "histogram/flat_store.h"
#include "stream/generators.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {
namespace {

using Bucket = ExponentialHistogram::Bucket;

ExponentialHistogram MakeEh(double epsilon, Tick window) {
  ExponentialHistogram::Options options;
  options.epsilon = epsilon;
  options.window = window;
  auto eh = ExponentialHistogram::Create(options);
  EXPECT_TRUE(eh.ok()) << eh.status().ToString();
  return std::move(eh).value();
}

TEST(ExponentialHistogramTest, CreateValidatesOptions) {
  ExponentialHistogram::Options options;
  options.epsilon = 0.0;
  EXPECT_FALSE(ExponentialHistogram::Create(options).ok());
  options.epsilon = 1.5;
  EXPECT_FALSE(ExponentialHistogram::Create(options).ok());
  options.epsilon = 0.1;
  options.window = 0;
  EXPECT_FALSE(ExponentialHistogram::Create(options).ok());
  options.window = 100;
  EXPECT_TRUE(ExponentialHistogram::Create(options).ok());
}

// An epsilon whose per-class budget ceil(1/eps) + 1 does not fit the bucket
// store's class-size counter is refused wherever an epsilon enters: the
// options builder and every histogram's Create. Casting ceil(1/1e-300) to an
// integer budget is undefined behaviour, so such an epsilon must never reach
// a constructor.
TEST(ExponentialHistogramTest, CreateRejectsEpsilonWithoutClassBudget) {
  auto decay = PolynomialDecay::Create(1.0).value();
  for (const double epsilon :
       {1e-300, std::numeric_limits<double>::denorm_min(), 1e-5, 3e-5}) {
    SCOPED_TRACE(epsilon);
    ExponentialHistogram::Options eh;
    eh.epsilon = epsilon;
    eh.window = 100;
    EXPECT_EQ(ExponentialHistogram::Create(eh).status().code(),
              StatusCode::kInvalidArgument);
    CehDecayedSum::Options ceh;
    ceh.epsilon = epsilon;
    EXPECT_EQ(CehDecayedSum::Create(decay, ceh).status().code(),
              StatusCode::kInvalidArgument);
    CoarseCehDecayedSum::Options coarse;
    coarse.epsilon = epsilon;
    EXPECT_EQ(CoarseCehDecayedSum::Create(decay, coarse).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(AggregateOptions::Builder().epsilon(epsilon).Build()
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ClassBudget(epsilon), 0u);
  }
  // A small epsilon whose budget fits builds, holds its units, and audits.
  ExponentialHistogram::Options fine;
  fine.epsilon = 1e-4;
  fine.window = 100;
  auto eh = ExponentialHistogram::Create(fine);
  ASSERT_TRUE(eh.ok()) << eh.status().ToString();
  eh->Add(1, 3);
  EXPECT_EQ(eh->TotalCount(), 3u);
  EXPECT_EQ(eh->BucketCount(), 3u);
  EXPECT_TRUE(eh->AuditInvariants().ok());
  EXPECT_EQ(ClassBudget(1e-4), 10001u);
  EXPECT_TRUE(AggregateOptions::Builder().epsilon(1e-4).Build().ok());
}

// Tick stores keep 32-bit offsets from a base tick. These cases walk the
// width transitions one at a time: the rebase a slide, a growth or an
// unreachable stamp makes, the switch to 64-bit words at a live span of
// 2^32 ticks, the return to narrow words once the store empties, and copy
// and decode of a wide block.
class FlatBucketStoreTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kCap = 100;  // no merges below 101 class-0 units
  static constexpr Tick kSpan = Tick{1} << 32;

  void Insert(Tick stamp, uint64_t units = 1) {
    store_.InsertUnits(units, stamp, kCap,
                       [](Tick /*older*/, Tick newer) { return newer; });
    ASSERT_TRUE(store_.AuditInvariants().ok());
  }
  std::vector<Tick> Stamps() const {
    std::vector<Tick> out;
    store_.ForEachOldestFirst(
        [&out](Tick stamp, uint64_t) { out.push_back(stamp); });
    return out;
  }
  /// Fills the tail with consecutive stamps after `*t`, stopping one short
  /// of a full block.
  void FillTail(Tick* t) {
    while (store_.end_index() + 1 < store_.capacity()) Insert(++*t);
  }

  FlatBucketStore<Tick> store_;
};

// The bucket block's transitions, one by one: it grows only when its live
// buckets fill it, slides its live buckets over an expired prefix instead of
// growing, rewinds when expiry empties it, and copies into an exact fit.
TEST_F(FlatBucketStoreTest, BlockGrowsSlidesAndIsReusedAfterExpiry) {
  FlatBucketStore<Tick> store;
  const auto newer = [](Tick /*older*/, Tick newer_stamp) {
    return newer_stamp;
  };
  const uint64_t cap = 100;  // no merges below 101 class-0 buckets
  auto stamps = [&store] {
    std::vector<Tick> out;
    store.ForEachOldestFirst([&out](Tick stamp, uint64_t count) {
      EXPECT_EQ(count, 1u);
      out.push_back(stamp);
    });
    return out;
  };
  Tick t = 0;
  size_t growths = 0;
  for (; t < 40; ) {
    const size_t capacity = store.capacity();
    const bool full = store.size() == capacity;
    store.InsertUnits(1, ++t, cap, newer);
    if (store.capacity() != capacity) {
      EXPECT_TRUE(full) << "grew at t=" << t << " with room to spare";
      ++growths;
    }
    ASSERT_TRUE(store.AuditInvariants().ok());
  }
  EXPECT_GE(growths, 3u);
  ASSERT_EQ(store.size(), 40u);

  // Slide: expire 30, then fill the tail; the next insert moves the 10+
  // live buckets to the front and the block keeps its size.
  const size_t capacity = store.capacity();
  EXPECT_EQ(store.ExpireOldest([](Tick stamp) { return stamp <= 30; }), 30u);
  EXPECT_EQ(store.begin_index(), 30u);
  while (store.end_index() < capacity) store.InsertUnits(1, ++t, cap, newer);
  store.InsertUnits(1, ++t, cap, newer);
  EXPECT_EQ(store.capacity(), capacity);
  EXPECT_EQ(store.begin_index(), 0u);
  ASSERT_TRUE(store.AuditInvariants().ok());
  std::vector<Tick> expected;
  for (Tick s = 31; s <= t; ++s) expected.push_back(s);
  EXPECT_EQ(stamps(), expected);

  // Reuse: expiry empties the store, which rewinds into the same block and
  // keeps its (emptied) class directory.
  store.ExpireOldest([](Tick) { return true; });
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.end_index(), 0u);
  EXPECT_EQ(store.capacity(), capacity);
  EXPECT_EQ(store.num_classes(), 1u);
  store.InsertUnits(3, ++t, cap, newer);
  EXPECT_EQ(store.capacity(), capacity);
  EXPECT_EQ(stamps(), std::vector<Tick>(3, t));
  ASSERT_TRUE(store.AuditInvariants().ok());

  // A deep cascade adds classes past the directory's first allocation.
  store.InsertUnits(uint64_t{1} << 20, ++t, cap, newer);
  EXPECT_GT(store.num_classes(), 8u);
  ASSERT_TRUE(store.AuditInvariants().ok());
  uint64_t total = 0;
  store.ForEachOldestFirst([&total](Tick, uint64_t count) { total += count; });
  EXPECT_EQ(total, (uint64_t{1} << 20) + 3);

  const FlatBucketStore<Tick> copy(store);
  EXPECT_EQ(copy.capacity(), copy.size());
  EXPECT_EQ(copy.num_classes(), store.num_classes());
  ASSERT_TRUE(copy.AuditInvariants().ok());
  for (size_t c = 0; c < store.num_classes(); ++c) {
    EXPECT_EQ(copy.class_size(c), store.class_size(c));
  }
}

TEST_F(FlatBucketStoreTest, SlideRebasesToTheOldestLiveStamp) {
  const Tick t0 = 5 * kSpan;  // far past 32 bits: only offsets fit
  Tick t = t0;
  for (int i = 0; i < 20; ++i) Insert(++t);
  EXPECT_EQ(store_.base_tick(), t0 + 1);
  store_.ExpireOldest([t0](Tick stamp) { return stamp <= t0 + 10; });
  const size_t capacity = store_.capacity();
  FillTail(&t);
  EXPECT_EQ(store_.base_tick(), t0 + 1) << "no move, no rebase";
  Insert(++t);  // fills the block
  Insert(++t);  // slides
  EXPECT_EQ(store_.capacity(), capacity);
  EXPECT_EQ(store_.begin_index(), 0u);
  EXPECT_EQ(store_.base_tick(), t0 + 11);
  EXPECT_FALSE(store_.wide());
  std::vector<Tick> expected;
  for (Tick s = t0 + 11; s <= t; ++s) expected.push_back(s);
  EXPECT_EQ(Stamps(), expected);
}

TEST_F(FlatBucketStoreTest, GrowthRebasesToTheOldestLiveStamp) {
  Tick t = 3 * kSpan;
  Insert(++t);
  const Tick first = t;
  while (store_.size() < store_.capacity()) Insert(++t);
  // One expired bucket frees too little for two more: the block grows.
  store_.ExpireOldest([first](Tick stamp) { return stamp <= first; });
  const size_t capacity = store_.capacity();
  Insert(++t, 2);
  EXPECT_GT(store_.capacity(), capacity);
  EXPECT_EQ(store_.begin_index(), 0u);
  EXPECT_EQ(store_.base_tick(), first + 1);
  EXPECT_FALSE(store_.wide());
  EXPECT_EQ(Stamps().front(), first + 1);
  EXPECT_EQ(Stamps().back(), t);
}

TEST_F(FlatBucketStoreTest, UnreachableStampForcesARebaseInPlace) {
  Insert(1);
  Insert(2);
  Insert(3);
  store_.ExpireOldest([](Tick stamp) { return stamp <= 1; });
  const size_t head = store_.begin_index();
  const size_t capacity = store_.capacity();
  // 2 + 2^32 - 1 is out of reach of base 1 but within 32 bits of the oldest
  // live stamp, 2: the words rebase where they are and stay narrow.
  const Tick far = 2 + (kSpan - 1);
  Insert(far);
  EXPECT_EQ(store_.base_tick(), 2);
  EXPECT_EQ(store_.begin_index(), head);
  EXPECT_EQ(store_.capacity(), capacity);
  EXPECT_FALSE(store_.wide());
  EXPECT_EQ(Stamps(), (std::vector<Tick>{2, 3, far}));
}

TEST_F(FlatBucketStoreTest, SpanOfTwoToTheThirtyTwoWidensTheWords) {
  Insert(7);
  Insert(7 + (kSpan - 1));  // span 2^32 - 1: the widest narrow span
  EXPECT_FALSE(store_.wide());
  Insert(7 + kSpan);  // span 2^32
  EXPECT_TRUE(store_.wide());
  EXPECT_EQ(Stamps(), (std::vector<Tick>{7, 7 + (kSpan - 1), 7 + kSpan}));
  // Wide words hold any span, and keep merging.
  const Tick huge = std::numeric_limits<Tick>::max() - 1;
  Insert(huge, kCap);
  EXPECT_TRUE(store_.wide());
  EXPECT_EQ(store_.num_classes(), 2u);
  EXPECT_EQ(Stamps().back(), huge);
  // 7 merged with 7 + 2^32 - 1, and 7 + 2^32 with the first new unit.
  std::vector<Tick> expected(kCap + 1, huge);
  expected.front() = 7 + (kSpan - 1);
  EXPECT_EQ(Stamps(), expected);
  uint64_t total = 0;
  store_.ForEachOldestFirst([&total](Tick, uint64_t count) { total += count; });
  EXPECT_EQ(total, kCap + 3);
}

TEST_F(FlatBucketStoreTest, EmptiedStoreReturnsToNarrowWords) {
  Insert(1);
  Insert(1 + kSpan);
  ASSERT_TRUE(store_.wide());
  const size_t wide_capacity = store_.capacity();
  store_.ExpireOldest([](Tick) { return true; });
  EXPECT_TRUE(store_.empty());
  EXPECT_FALSE(store_.wide());
  EXPECT_EQ(store_.capacity(), 2 * wide_capacity) << "same block, half words";
  ASSERT_TRUE(store_.AuditInvariants().ok());
  Insert(3 * kSpan);
  EXPECT_FALSE(store_.wide());
  EXPECT_EQ(store_.base_tick(), 3 * kSpan);
  EXPECT_EQ(Stamps(), std::vector<Tick>{3 * kSpan});
  Insert(1 + 3 * kSpan);
  store_.Clear();
  EXPECT_FALSE(store_.wide());
}

TEST_F(FlatBucketStoreTest, CopyAndDecodeOfAWideBlock) {
  for (Tick t : {Tick{5}, Tick{6}, 5 + 4 * kSpan, 5 + 9 * kSpan}) Insert(t);
  ASSERT_TRUE(store_.wide());
  const FlatBucketStore<Tick> copy(store_);
  EXPECT_TRUE(copy.wide());
  EXPECT_EQ(copy.capacity(), copy.size());
  ASSERT_TRUE(copy.AuditInvariants().ok());
  std::vector<Tick> copied;
  copy.ForEachOldestFirst(
      [&copied](Tick stamp, uint64_t) { copied.push_back(stamp); });
  EXPECT_EQ(copied, Stamps());

  // Decode picks the width from the span it is handed.
  auto decode = [](const std::vector<std::vector<Tick>>& classes) {
    FlatBucketStore<Tick> decoded;
    EXPECT_TRUE(decoded.AssignFromAscendingClasses(
        classes.size(), [&classes](size_t c, std::vector<Tick>& out) {
          out.insert(out.end(), classes[c].begin(), classes[c].end());
          return true;
        }));
    EXPECT_TRUE(decoded.AuditInvariants().ok());
    return decoded;
  };
  const FlatBucketStore<Tick> wide = decode({{5 + 9 * kSpan}, {5, 6}});
  EXPECT_TRUE(wide.wide());
  std::vector<Tick> stamps;
  wide.ForEachOldestFirst(
      [&stamps](Tick stamp, uint64_t) { stamps.push_back(stamp); });
  EXPECT_EQ(stamps, (std::vector<Tick>{5, 6, 5 + 9 * kSpan}));
  const FlatBucketStore<Tick> narrow =
      decode({{4 * kSpan + 9}, {4 * kSpan, 4 * kSpan + 3}});
  EXPECT_FALSE(narrow.wide());
  EXPECT_EQ(narrow.base_tick(), 4 * kSpan);
  // Decoding into a wide store's block.
  store_ = wide;
  EXPECT_TRUE(store_.AssignFromAscendingClasses(
      1, [](size_t, std::vector<Tick>& out) {
        out.push_back(8);
        return true;
      }));
  EXPECT_FALSE(store_.wide());
  EXPECT_EQ(Stamps(), std::vector<Tick>{8});
}

TEST(ExponentialHistogramTest, EmptyEstimatesZero) {
  ExponentialHistogram eh = MakeEh(0.1, 100);
  EXPECT_EQ(eh.Estimate(), 0.0);
  eh.AdvanceTo(50);
  EXPECT_EQ(eh.Estimate(), 0.0);
  EXPECT_EQ(eh.BucketCount(), 0u);
  EXPECT_TRUE(eh.Empty());
}

TEST(ExponentialHistogramTest, ExactWhileEverythingInWindow) {
  ExponentialHistogram eh = MakeEh(0.1, 1000);
  uint64_t total = 0;
  for (Tick t = 1; t <= 100; ++t) {
    eh.Add(t, 1);
    ++total;
    // Nothing has expired, so the estimate must be exact.
    EXPECT_DOUBLE_EQ(eh.Estimate(), static_cast<double>(total)) << "t=" << t;
  }
}

TEST(ExponentialHistogramTest, BucketCountsArePowersOfTwo) {
  ExponentialHistogram eh = MakeEh(0.2, kInfiniteHorizon);
  for (Tick t = 1; t <= 500; ++t) eh.Add(t, 1);
  for (const Bucket& b : eh.Buckets()) {
    EXPECT_EQ(b.count & (b.count - 1), 0u) << "count=" << b.count;
  }
}

TEST(ExponentialHistogramTest, BucketsOrderedOldestFirstWithTotalPreserved) {
  ExponentialHistogram eh = MakeEh(0.2, kInfiniteHorizon);
  uint64_t total = 0;
  Rng rng(7);
  for (Tick t = 1; t <= 300; ++t) {
    const uint64_t value = rng.NextBelow(4);
    eh.Add(t, value);
    total += value;
  }
  Tick prev_end = 0;
  uint64_t bucket_total = 0;
  for (const Bucket& b : eh.Buckets()) {
    EXPECT_GE(b.end, prev_end);
    prev_end = b.end;
    bucket_total += b.count;
  }
  EXPECT_EQ(bucket_total, total);
  EXPECT_EQ(eh.TotalCount(), total);
}

TEST(ExponentialHistogramTest, ExpiryDropsOldBuckets) {
  ExponentialHistogram eh = MakeEh(0.1, 10);
  for (Tick t = 1; t <= 50; ++t) eh.Add(t, 1);
  // Window is [41, 50]: no bucket may end before 41.
  for (const Bucket& b : eh.Buckets()) EXPECT_GE(b.end, 41);
  // Advance far: everything expires.
  eh.AdvanceTo(100);
  EXPECT_EQ(eh.BucketCount(), 0u);
  EXPECT_EQ(eh.Estimate(), 0.0);
}

TEST(ExponentialHistogramTest, ValueInsertEqualsUnitInserts) {
  // Adding v at tick t must leave exactly the same state as adding 1
  // v times at tick t (one v-unit insert is semantically a batch of unit
  // insertions). The values straddle the class budget (cap = 5 at eps
  // 0.25) and reach well past it; the last run jumps its ticks past 2^32
  // halfway, so the store's words are 64 bits wide.
  struct Run {
    uint64_t value;
    Tick jump;
  };
  for (const Run run : {Run{2, 0}, Run{3, 0}, Run{5, 0}, Run{17, 0},
                        Run{64, 0}, Run{100, 0}, Run{4, 0}, Run{6, 0},
                        Run{11, 0}, Run{4097, 0}, Run{11, Tick{1} << 32}}) {
    const uint64_t value = run.value;
    ExponentialHistogram fast = MakeEh(0.25, kInfiniteHorizon);
    ExponentialHistogram slow = MakeEh(0.25, kInfiniteHorizon);
    Rng rng(value);
    for (Tick step = 1; step <= 40; ++step) {
      const Tick t = step + (step > 20 ? run.jump : 0);
      const uint64_t v = (step % 3 == 0) ? value : rng.NextBelow(3);
      fast.Add(t, v);
      for (uint64_t i = 0; i < v; ++i) slow.Add(t, 1);
      slow.AdvanceTo(t);
    }
    const auto fast_buckets = fast.Buckets();
    const auto slow_buckets = slow.Buckets();
    ASSERT_EQ(fast_buckets.size(), slow_buckets.size()) << "value=" << value;
    for (size_t i = 0; i < fast_buckets.size(); ++i) {
      EXPECT_EQ(fast_buckets[i].end, slow_buckets[i].end);
      EXPECT_EQ(fast_buckets[i].count, slow_buckets[i].count);
    }
    if (run.jump != 0) {
      EXPECT_GT(fast_buckets.back().end - fast_buckets.front().end, run.jump)
          << "the live stamps must span 2^32 ticks";
    }
  }
}

// Brute-force window count for reference.
uint64_t BruteWindowCount(const Stream& stream, Tick now, Tick w) {
  uint64_t count = 0;
  for (const StreamItem& item : stream) {
    if (item.t <= now && AgeAt(item.t, now) <= w) count += item.value;
  }
  return count;
}

struct EhAccuracyParam {
  double epsilon;
  double density;
  uint64_t seed;
};

class EhAccuracyTest : public ::testing::TestWithParam<EhAccuracyParam> {};

TEST_P(EhAccuracyTest, AllWindowEstimatesWithinEpsilon) {
  const EhAccuracyParam param = GetParam();
  const Tick length = 2000;
  const Stream stream = BernoulliStream(length, param.density, param.seed);
  ExponentialHistogram eh = MakeEh(param.epsilon, kInfiniteHorizon);
  for (const StreamItem& item : stream) eh.Add(item.t, item.value);
  eh.AdvanceTo(length);
  // Lemma 4.1: one EH answers every window size.
  for (Tick w : {1, 2, 3, 5, 10, 50, 100, 500, 1000, 1999, 2000}) {
    const double estimate = eh.EstimateWindow(w);
    const double exact = static_cast<double>(BruteWindowCount(stream, length, w));
    if (exact == 0.0) {
      EXPECT_EQ(estimate, 0.0) << "w=" << w;
      continue;
    }
    EXPECT_LE(std::fabs(estimate - exact), param.epsilon * exact + 1e-9)
        << "w=" << w << " exact=" << exact << " est=" << estimate;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EhAccuracyTest,
    ::testing::Values(EhAccuracyParam{0.5, 0.5, 1}, EhAccuracyParam{0.2, 0.5, 2},
                      EhAccuracyParam{0.1, 0.5, 3}, EhAccuracyParam{0.05, 0.5, 4},
                      EhAccuracyParam{0.1, 0.05, 5}, EhAccuracyParam{0.1, 1.0, 6},
                      EhAccuracyParam{0.02, 0.3, 7},
                      EhAccuracyParam{0.3, 0.9, 8}));

TEST(ExponentialHistogramTest, SlidingWindowEstimateWithinEpsilon) {
  const double epsilon = 0.1;
  const Tick window = 256;
  ExponentialHistogram eh = MakeEh(epsilon, window);
  const Stream stream = BernoulliStream(5000, 0.7, 99);
  std::deque<StreamItem> live;
  for (const StreamItem& item : stream) {
    eh.Add(item.t, item.value);
    live.push_back(item);
    while (!live.empty() && AgeAt(live.front().t, item.t) > window) {
      live.pop_front();
    }
    uint64_t exact = 0;
    for (const StreamItem& x : live) exact += x.value;
    const double estimate = eh.Estimate();
    EXPECT_LE(std::fabs(estimate - static_cast<double>(exact)),
              epsilon * static_cast<double>(exact) + 1e-9)
        << "t=" << item.t;
  }
}

TEST(ExponentialHistogramTest, StorageGrowsPolylogarithmically) {
  // O(eps^{-1} log^2 N): doubling N should add roughly O(log N) bits, far
  // from doubling the storage.
  ExponentialHistogram eh = MakeEh(0.1, kInfiniteHorizon);
  std::vector<size_t> bits;
  Tick t = 1;
  for (int stage = 0; stage < 6; ++stage) {
    const Tick stage_end = Tick{1} << (10 + stage);
    for (; t <= stage_end; ++t) eh.Add(t, 1);
    bits.push_back(eh.StorageBits());
  }
  for (size_t i = 1; i < bits.size(); ++i) {
    EXPECT_LT(bits[i], bits[i - 1] * 3 / 2)
        << "storage should grow much slower than the stream";
  }
}

TEST(ExponentialHistogramTest, LargeValueInsertIsFast) {
  // A single huge value must take O(cap * log v) work, not O(v); this
  // asserts it completes and preserves the count.
  ExponentialHistogram eh = MakeEh(0.1, kInfiniteHorizon);
  eh.Add(1, uint64_t{1} << 40);
  eh.Add(2, (uint64_t{1} << 40) + 12345);
  EXPECT_EQ(eh.TotalCount(), (uint64_t{1} << 41) + 12345);
  const double estimate = eh.EstimateWindow(2);
  EXPECT_NEAR(estimate, static_cast<double>(eh.TotalCount()),
              0.1 * static_cast<double>(eh.TotalCount()));

  // 2^62 units into a histogram whose classes 0..2 are at cap (11): every
  // stored bucket there merges, and the new units' survivors land in
  // several classes at once, each still within cap and in canonical order.
  const uint64_t cap = 11;
  ExponentialHistogram full = MakeEh(0.1, kInfiniteHorizon);
  const auto per_class = [](const ExponentialHistogram& h) {
    std::map<uint64_t, uint64_t> sizes;
    for (const ExponentialHistogram::Bucket& b : h.Buckets()) {
      ++sizes[b.count];
    }
    return sizes;
  };
  Tick t = 0;
  while (t < 10000) {
    full.Add(++t, 1);
    const auto sizes = per_class(full);
    if (sizes.count(1) && sizes.at(1) == cap && sizes.count(2) &&
        sizes.at(2) == cap && sizes.count(4) && sizes.at(4) == cap) {
      break;
    }
  }
  ASSERT_LT(t, 10000) << "classes 0..2 never all reached cap";
  const uint64_t before = full.TotalCount();
  full.Add(++t, uint64_t{1} << 62);
  EXPECT_EQ(full.TotalCount(), before + (uint64_t{1} << 62));
  ASSERT_TRUE(full.AuditInvariants().ok());
  uint64_t total = 0;
  std::set<uint64_t> fresh_classes;
  const auto buckets = full.Buckets();
  for (size_t i = 0; i < buckets.size(); ++i) {
    total += buckets[i].count;
    if (buckets[i].end == t) fresh_classes.insert(buckets[i].count);
    if (i > 0) {
      EXPECT_LE(buckets[i].count, buckets[i - 1].count);
      EXPECT_GE(buckets[i].end, buckets[i - 1].end);
    }
  }
  EXPECT_EQ(total, full.TotalCount());
  EXPECT_GT(fresh_classes.size(), 2u);
  for (const auto& [size, count] : per_class(full)) EXPECT_LE(count, cap);
  // Units that would overflow class 0's 64-bit count are refused.
  EXPECT_DEATH(full.Add(t, std::numeric_limits<uint64_t>::max()),
               "TDS_CHECK");
}

TEST(ExponentialHistogramTest, PerClassCapInvariant) {
  // The canonical EH invariant: at most cap = ceil(1/eps)+1 buckets per
  // size class at all times.
  const double epsilon = 0.2;
  const uint64_t cap = static_cast<uint64_t>(std::ceil(1.0 / epsilon)) + 1;
  ExponentialHistogram eh = MakeEh(epsilon, kInfiniteHorizon);
  Rng rng(13);
  for (Tick t = 1; t <= 2000; ++t) {
    eh.Add(t, rng.NextBelow(5));
    std::map<uint64_t, uint64_t> per_class;
    for (const Bucket& b : eh.Buckets()) ++per_class[b.count];
    for (const auto& [size, count] : per_class) {
      ASSERT_LE(count, cap) << "t=" << t << " size=" << size;
    }
  }
}

TEST(ExponentialHistogramTest, DeterministicReplay) {
  // Two histograms fed the same stream are bit-identical, regardless of
  // interleaved AdvanceTo calls.
  ExponentialHistogram a = MakeEh(0.1, 512);
  ExponentialHistogram b = MakeEh(0.1, 512);
  Rng rng(21);
  Tick t = 1;
  for (int i = 0; i < 1500; ++i) {
    t += rng.NextBelow(4);
    const uint64_t value = rng.NextBelow(3);
    a.Add(t, value);
    b.AdvanceTo(t);  // extra advances must not matter
    b.Add(t, value);
  }
  const auto buckets_a = a.Buckets();
  const auto buckets_b = b.Buckets();
  ASSERT_EQ(buckets_a.size(), buckets_b.size());
  for (size_t i = 0; i < buckets_a.size(); ++i) {
    EXPECT_EQ(buckets_a[i].end, buckets_b[i].end);
    EXPECT_EQ(buckets_a[i].count, buckets_b[i].count);
  }
}

TEST(ExponentialHistogramTest, WindowOneTracksLastTick) {
  ExponentialHistogram eh = MakeEh(0.1, 1);
  eh.Add(5, 3);
  EXPECT_DOUBLE_EQ(eh.Estimate(), 3.0);
  eh.AdvanceTo(6);
  EXPECT_DOUBLE_EQ(eh.Estimate(), 0.0);
  eh.Add(7, 2);
  EXPECT_DOUBLE_EQ(eh.Estimate(), 2.0);
}

TEST(ExponentialHistogramTest, EstimateWindowBeyondStreamIsTotal) {
  ExponentialHistogram eh = MakeEh(0.1, kInfiniteHorizon);
  for (Tick t = 1; t <= 100; ++t) eh.Add(t, 1);
  // Window covering the whole stream: exact.
  EXPECT_DOUBLE_EQ(eh.EstimateWindow(100), 100.0);
  EXPECT_DOUBLE_EQ(eh.EstimateWindow(5000), 100.0);
}


TEST(ExponentialHistogramMergeTest, RejectsMismatchedOptions) {
  ExponentialHistogram a = MakeEh(0.1, 100);
  ExponentialHistogram b = MakeEh(0.2, 100);
  EXPECT_FALSE(a.MergeFrom(b).ok());
  ExponentialHistogram c = MakeEh(0.1, 200);
  EXPECT_FALSE(a.MergeFrom(c).ok());
}

TEST(ExponentialHistogramMergeTest, DisjointStreamsApproximateUnion) {
  // Two sites see interleaved halves of one stream; the merged histogram
  // must estimate the union's window counts within the summed tolerances.
  const double epsilon = 0.1;
  const Tick window = 1024;
  ExponentialHistogram site_a = MakeEh(epsilon, window);
  ExponentialHistogram site_b = MakeEh(epsilon, window);
  ExponentialHistogram centralized = MakeEh(epsilon, window);
  const Stream stream = BernoulliStream(6000, 0.8, 31);
  for (size_t i = 0; i < stream.size(); ++i) {
    (i % 2 == 0 ? site_a : site_b).Add(stream[i].t, stream[i].value);
    centralized.Add(stream[i].t, stream[i].value);
  }
  site_a.AdvanceTo(6000);
  site_b.AdvanceTo(6000);
  centralized.AdvanceTo(6000);
  ASSERT_TRUE(site_a.MergeFrom(site_b).ok());
  EXPECT_EQ(site_a.TotalCount(), centralized.TotalCount());
  for (Tick w : {16, 64, 256, 1024}) {
    const double merged = site_a.EstimateWindow(w);
    const double exact =
        static_cast<double>(BruteWindowCount(stream, 6000, w));
    if (exact == 0.0) continue;
    EXPECT_LE(std::fabs(merged - exact), 2.5 * epsilon * exact + 1.0)
        << "w=" << w;
  }
}

TEST(ExponentialHistogramMergeTest, MergeIntoEmpty) {
  ExponentialHistogram a = MakeEh(0.1, 256);
  ExponentialHistogram b = MakeEh(0.1, 256);
  for (Tick t = 1; t <= 100; ++t) b.Add(t, 1);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.TotalCount(), 100u);
  EXPECT_EQ(a.now(), 100);
  // And the other direction: merging an empty histogram is a no-op.
  ExponentialHistogram empty = MakeEh(0.1, 256);
  const uint64_t before = a.TotalCount();
  ASSERT_TRUE(a.MergeFrom(empty).ok());
  EXPECT_EQ(a.TotalCount(), before);
}

TEST(ExponentialHistogramMergeTest, ManySitesFanIn) {
  // Coordinator fan-in across 8 sites.
  const double epsilon = 0.1;
  const Tick window = 2048;
  std::vector<ExponentialHistogram> sites;
  for (int s = 0; s < 8; ++s) sites.push_back(MakeEh(epsilon, window));
  const Stream stream = BernoulliStream(4000, 0.9, 77);
  for (size_t i = 0; i < stream.size(); ++i) {
    sites[i % 8].Add(stream[i].t, stream[i].value);
  }
  ExponentialHistogram coordinator = MakeEh(epsilon, window);
  for (auto& site : sites) {
    site.AdvanceTo(4000);
    ASSERT_TRUE(coordinator.MergeFrom(site).ok());
  }
  const double exact =
      static_cast<double>(BruteWindowCount(stream, 4000, window));
  EXPECT_NEAR(coordinator.Estimate(), exact, 3 * epsilon * exact + 1.0);
}

TEST(ExponentialHistogramTest, AdvanceToRejectsTimeTravel) {
  ExponentialHistogram eh = MakeEh(0.1, 100);
  eh.Add(10, 1);
  EXPECT_DEATH(eh.Add(5, 1), "TDS_CHECK");
}

TEST(ExponentialHistogramMergeTest, SameTickMultiClassBucketsSurviveMerge) {
  // Regression: a single large Add creates buckets in several classes, all
  // sharing one end timestamp. The merge rebuild used to compute a negative
  // span for the second and later ones (previous_end had already passed
  // their end), round chunks down to zero, and silently drop their counts.
  ExponentialHistogram a = MakeEh(0.1, 512);
  a.Add(100, 1149);  // 1149 = 0b10001111101: buckets in 7 classes at t=100.
  ExponentialHistogram b = MakeEh(0.1, 512);
  b.Add(101, 3);
  ASSERT_TRUE(b.MergeFrom(a).ok());
  EXPECT_TRUE(b.AuditInvariants().ok());
  EXPECT_NEAR(b.Estimate(), 1152.0, 0.1 * 1152.0 + 1.0);
}

TEST(ExponentialHistogramCodecTest, RoundTripPreservesStateExactly) {
  ExponentialHistogram eh = MakeEh(0.1, 256);
  const Stream stream = BurstyStream(2000, 25, 40, 2.0, 9);
  for (const auto& [t, value] : stream) eh.Add(t, value);

  Encoder encoder;
  eh.EncodeState(encoder);
  const std::string blob = encoder.Finish();

  ExponentialHistogram restored = MakeEh(0.1, 256);
  Decoder decoder(blob);
  ASSERT_TRUE(restored.DecodeState(decoder).ok());
  EXPECT_TRUE(decoder.Done());
  EXPECT_TRUE(restored.AuditInvariants().ok());
  EXPECT_EQ(restored.TotalCount(), eh.TotalCount());
  EXPECT_DOUBLE_EQ(restored.Estimate(), eh.Estimate());
  for (Tick w : {1, 7, 64, 256}) {
    EXPECT_DOUBLE_EQ(restored.EstimateWindow(w), eh.EstimateWindow(w)) << w;
  }

  // Continuing both must stay bit-identical: the snapshot is the state.
  for (Tick t = 2001; t < 2100; ++t) {
    eh.Add(t, 1 + (t % 3));
    restored.Add(t, 1 + (t % 3));
    ASSERT_DOUBLE_EQ(restored.Estimate(), eh.Estimate()) << t;
  }
}

TEST(ExponentialHistogramCodecTest, DecodeRejectsMismatchedOptions) {
  ExponentialHistogram eh = MakeEh(0.1, 100);
  eh.Add(5, 10);
  Encoder encoder;
  eh.EncodeState(encoder);
  const std::string blob = encoder.Finish();

  ExponentialHistogram wrong_eps = MakeEh(0.2, 100);
  Decoder d1(blob);
  EXPECT_FALSE(wrong_eps.DecodeState(d1).ok());

  ExponentialHistogram wrong_window = MakeEh(0.1, 200);
  Decoder d2(blob);
  EXPECT_FALSE(wrong_window.DecodeState(d2).ok());
}

TEST(ExponentialHistogramCodecTest, DecodeRejectsTruncatedBlob) {
  ExponentialHistogram eh = MakeEh(0.1, 100);
  for (Tick t = 1; t <= 50; ++t) eh.Add(t, 2);
  Encoder encoder;
  eh.EncodeState(encoder);
  const std::string blob = encoder.Finish();
  for (size_t len = 0; len < blob.size(); ++len) {
    ExponentialHistogram target = MakeEh(0.1, 100);
    const std::string truncated = blob.substr(0, len);  // Decoder is a view.
    Decoder decoder(truncated);
    EXPECT_FALSE(target.DecodeState(decoder).ok()) << "len=" << len;
  }
}

// A hostile blob whose bucket counts wrap the 64-bit total back to the
// encoded total_count: two class-63 buckets of 2^63 sum to 0. Accepting it
// would leave an empty-looking histogram whose next cascade reaches
// class 64.
TEST(ExponentialHistogramCodecTest, DecodeRejectsWrappingBucketTotal) {
  Encoder encoder;
  encoder.PutDouble(0.1);  // epsilon
  encoder.PutSigned(100);  // window
  encoder.PutSigned(10);   // now
  encoder.PutSigned(5);    // first arrival
  encoder.PutVarint(0);    // total count
  encoder.PutVarint(64);   // classes
  for (int c = 0; c < 63; ++c) encoder.PutVarint(0);
  encoder.PutVarint(2);  // class 63: two buckets ending at tick 5
  encoder.PutVarint(5);
  encoder.PutVarint(uint64_t{1} << 63);
  encoder.PutVarint(0);
  encoder.PutVarint(uint64_t{1} << 63);
  const std::string blob = encoder.Finish();

  ExponentialHistogram target = MakeEh(0.1, 100);
  Decoder decoder(blob);
  EXPECT_FALSE(target.DecodeState(decoder).ok());
}

}  // namespace
}  // namespace tds
