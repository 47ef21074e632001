// Single-thread ingest cost of a bare AggregateRegistry: the registry layer
// of the engine's cold_keys workload without its producers, rings and
// writer threads. Every row feeds shuffled passes over its key space (run
// length 1: each tick's items name distinct keys) in 4096-item batches,
// values drawn uniformly from 1..4, epsilon 0.1, and reports the median of
// its timed passes in ns per item of AggregateRegistry::UpdateBatch.
//
//   cold      2^17 keys, 2048 items per tick: one shard's cold_keys shape,
//             whose entries and bucket blocks do not fit the caches
//   in cache  2^12 keys, 64 items per tick: the same per-key shape (each key
//             gets one item every 64 ticks) on a working set that fits L2
//
// each for a CEH registry over a 1024-tick sliding window and an EWMA
// registry (exponential decay, lambda 0.01; its keys never expire here).
// The gap between a backend's cold and in-cache rows is what misses on the
// key table, the entries and the state blocks cost. A last row times a bare
// EhState array (the in-cache shape, values 12..23), where every insert is
// above the class budget of 11, so FlatBucketStore's merge sweep carries
// counted new buckets up past class 0.
//
// Usage:
//   registry_ingest                     prints the table (about 30 s)
//   registry_ingest --smoke             small sizes, one short pass per
//                                       row; no timing assertion
//   registry_ingest --smoke --require-sanitizer-skip
//                                       sanitizer builds: prints the skip
//                                       banner and exits 0 (their timings
//                                       say nothing about the release code)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/factory.h"
#include "decay/exponential.h"
#include "decay/sliding_window.h"
#include "engine/registry.h"
#include "histogram/exponential_histogram.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr size_t kBatch = 4096;
constexpr Tick kWindow = 1024;
constexpr double kEpsilon = 0.1;

/// One row's stream shape and run lengths.
struct Shape {
  size_t keys;
  size_t items_per_tick;
  size_t warm_items;  ///< fed before timing: fills the window
  size_t pass_items;  ///< fed per timed pass
  int passes;
};

/// Shuffled passes over [0, keys): item i of the stream lands at tick
/// 1 + i / items_per_tick, with a value from [min_value, max_value].
class Stream {
 public:
  Stream(const Shape& shape, uint64_t min_value, uint64_t max_value)
      : items_per_tick_(shape.items_per_tick),
        min_value_(min_value),
        span_(max_value - min_value + 1),
        perm_(shape.keys),
        pos_(shape.keys) {
    for (uint64_t k = 0; k < shape.keys; ++k) perm_[k] = k;
  }

  /// The next `n` items.
  void Next(size_t n, std::vector<KeyedItem>* out) {
    out->clear();
    for (size_t i = 0; i < n; ++i, ++emitted_) {
      if (pos_ == perm_.size()) {
        for (size_t j = perm_.size(); j > 1; --j) {
          std::swap(perm_[j - 1], perm_[rng_.NextBelow(j)]);
        }
        pos_ = 0;
      }
      const Tick t = 1 + static_cast<Tick>(emitted_ / items_per_tick_);
      out->push_back({perm_[pos_++], t, min_value_ + rng_.NextBelow(span_)});
    }
  }

 private:
  size_t items_per_tick_;
  uint64_t min_value_;
  uint64_t span_;
  std::vector<uint64_t> perm_;
  size_t pos_;
  size_t emitted_ = 0;
  Rng rng_{0x1a7e};
};

double NsPerItem(std::chrono::steady_clock::duration elapsed, size_t items) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(items);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median ns/item of UpdateBatch over the timed passes; `keys` receives
/// the live key count at the end (every key, since none expires).
double TimeRegistry(const DecayPtr& decay, Backend backend,
                    const Shape& shape, size_t* keys) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(backend)
                          .epsilon(kEpsilon)
                          .Build()
                          .value();
  AggregateRegistry registry =
      AggregateRegistry::Create(decay, options).value();
  Stream stream(shape, 1, 4);
  std::vector<KeyedItem> items;
  auto feed = [&registry, &items] {
    for (size_t begin = 0; begin < items.size(); begin += kBatch) {
      const size_t n = std::min(kBatch, items.size() - begin);
      registry.UpdateBatch({items.data() + begin, n});
    }
  };
  stream.Next(shape.warm_items, &items);
  feed();
  std::vector<double> passes;
  for (int pass = 0; pass < shape.passes; ++pass) {
    stream.Next(shape.pass_items, &items);
    const auto start = std::chrono::steady_clock::now();
    feed();
    passes.push_back(
        NsPerItem(std::chrono::steady_clock::now() - start, items.size()));
  }
  *keys = registry.KeyCount();
  return Median(passes);
}

/// Median ns/item of EhState::Add on one state per key, values 12..23.
double TimeOverCap(const Shape& shape) {
  const EhParams params = EhParams::Create(kEpsilon, kWindow).value();
  std::vector<EhState> states(shape.keys);
  Stream stream(shape, 12, 23);
  std::vector<KeyedItem> items;
  auto feed = [&] {
    for (const KeyedItem& item : items) {
      states[item.key].Add(params, item.t, item.value);
    }
  };
  stream.Next(shape.warm_items, &items);
  feed();
  std::vector<double> passes;
  for (int pass = 0; pass < shape.passes; ++pass) {
    stream.Next(shape.pass_items, &items);
    const auto start = std::chrono::steady_clock::now();
    feed();
    passes.push_back(
        NsPerItem(std::chrono::steady_clock::now() - start, items.size()));
  }
  return Median(passes);
}

}  // namespace
}  // namespace tds

int main(int argc, char** argv) {
  using namespace tds;
  bool smoke = false;
  bool require_sanitizer_skip = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--require-sanitizer-skip") == 0) {
      require_sanitizer_skip = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--require-sanitizer-skip]\n",
                   argv[0]);
      return 2;
    }
  }
  if (require_sanitizer_skip) {
#ifdef TDS_SANITIZE_BUILD
    std::printf(
        "SKIPPED: registry_ingest smoke skipped under sanitizer build "
        "(instrumented timings say nothing about the release code)\n");
    return 0;
#else
    std::fprintf(stderr,
                 "--require-sanitizer-skip passed to a non-sanitizer build: "
                 "the ingest smoke should have run for real\n");
    return 1;
#endif
  }
  // A full window is 1024 ticks; timed passes are 2^20 items cold and
  // 2^18 in cache (512 and 4096 ticks). --smoke shrinks the key spaces
  // and runs one short pass.
  const Shape cold = smoke ? Shape{1u << 12, 64, 1u << 14, 1u << 13, 1}
                           : Shape{1u << 17, 2048, 2048 * kWindow, 1u << 20, 7};
  const Shape warm = smoke ? Shape{1u << 8, 4, 1u << 10, 1u << 10, 1}
                           : Shape{1u << 12, 64, 64 * kWindow, 1u << 18, 7};
  bench::Header("registry ingest: single-thread UpdateBatch, ns per item");
  std::printf("run length 1, values 1..4, epsilon 0.1, batches of %zu, "
              "median of %d passes\n",
              kBatch, cold.passes);
  bench::PrintRow({"backend", "decay", "keys", "items/tick", "ns/item"});
  struct Case {
    const char* name;
    const char* decay_name;
    DecayPtr decay;
    Backend backend;
  };
  const Case cases[] = {
      {"CEH", "sliwin:1024", SlidingWindowDecay::Create(kWindow).value(),
       Backend::kCeh},
      {"EWMA", "exp:0.01", ExponentialDecay::Create(0.01).value(),
       Backend::kEwma},
  };
  bool lost_keys = false;
  for (const Case& c : cases) {
    for (const Shape* shape : {&cold, &warm}) {
      size_t keys = 0;
      const double ns = TimeRegistry(c.decay, c.backend, *shape, &keys);
      bench::PrintRow({c.name, c.decay_name, bench::FmtInt(shape->keys),
                       bench::FmtInt(shape->items_per_tick), bench::Fmt(ns)});
      if (keys != shape->keys) {
        std::fprintf(stderr, "FAIL: %s holds %zu keys, fed %zu\n", c.name,
                     keys, shape->keys);
        lost_keys = true;
      }
    }
  }
  bench::PrintRow({"EhState", "sliwin:1024", bench::FmtInt(warm.keys),
                   bench::FmtInt(warm.items_per_tick),
                   bench::Fmt(TimeOverCap(warm))});
  std::printf("(EhState row: values 12..23, every insert over the class "
              "budget, so new buckets merge among themselves)\n");
  return lost_keys ? 1 : 0;
}
