// Per-key memory of a bare AggregateRegistry, against the paper's bit
// metric: feeds 2^18 keys x 16 items (shuffled keys, value 1, epsilon 0.1,
// batches of 4096 items, one tick per batch) into a CEH registry over a
// 1024-tick sliding window and a WBMH registry under 1/x decay, and prints
// per backend the heap bytes per key (the mallinfo2 in-use delta across
// building and feeding the registry) and StorageBits() per key. A third
// row, "CEH cold", feeds the CEH registry values 1..4, which gives its keys
// the bucket shape of the cold_keys engine workload (about 24 buckets; the
// value-1 row holds about 13).
//
// Usage:
//   registry_footprint                  2^18 keys, prints the table
//   registry_footprint --smoke          2^14 keys; exits 1 if CEH or WBMH
//                                       heap bytes/key exceed their bound
//                                       (kSmokeCehBound, kSmokeCehColdBound,
//                                       kSmokeWbmhBound)
//   registry_footprint --smoke --require-sanitizer-skip
//                                       sanitizer builds: prints the skip
//                                       banner and exits 0 (their allocator
//                                       is not glibc's, so mallinfo2 does
//                                       not see the registry)
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/registry.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr int kItemsPerKey = 16;
constexpr size_t kBatch = 4096;
/// Gates for --smoke: heap bytes/key at 2^14 keys, measured (x86-64, glibc
/// 2.36, gcc 12, Release) with 32-bit EH stamp words, plus 10% headroom.
/// CEH read 90.5 (137.0 with 64-bit stamps, 255.6 with a heap
/// aggregate object per key, 345.2 with two bucket vectors per key), CEH
/// cold 235.2 (333.2 with 64-bit stamps); WBMH read 473.9.
constexpr double kSmokeCehBound = 99.5;
constexpr double kSmokeCehColdBound = 259.0;
constexpr double kSmokeWbmhBound = 521.0;

struct Footprint {
  double heap_bytes_per_key = 0.0;
  double storage_bits_per_key = 0.0;
};

size_t HeapInUse() { return mallinfo2().uordblks; }

/// Every key kItemsPerKey times, in one seeded shuffle.
std::vector<uint64_t> ShuffledKeys(size_t keys) {
  std::vector<uint64_t> order;
  order.reserve(keys * kItemsPerKey);
  for (uint64_t key = 0; key < keys; ++key) {
    order.insert(order.end(), kItemsPerKey, key);
  }
  Rng rng(0x5eed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

/// Feeds `order` with values drawn uniformly from 1..max_value.
Footprint Measure(const DecayPtr& decay, Backend backend,
                  const std::vector<uint64_t>& order, size_t keys,
                  uint64_t max_value) {
  AggregateRegistry::Options options;
  options.aggregate =
      AggregateOptions::Builder().backend(backend).epsilon(0.1).Build().value();
  std::vector<KeyedItem> batch;
  batch.reserve(kBatch);
  const size_t before = HeapInUse();
  AggregateRegistry registry =
      AggregateRegistry::Create(decay, options).value();
  Rng values(0xc01d);
  Tick t = 0;
  for (size_t begin = 0; begin < order.size(); begin += kBatch) {
    ++t;
    batch.clear();
    const size_t end = std::min(order.size(), begin + kBatch);
    for (size_t i = begin; i < end; ++i) {
      batch.push_back({order[i], t, 1 + values.NextBelow(max_value)});
    }
    registry.UpdateBatch(batch);
  }
  const size_t after = HeapInUse();
  Footprint out;
  out.heap_bytes_per_key =
      static_cast<double>(after - before) / static_cast<double>(keys);
  out.storage_bits_per_key = static_cast<double>(registry.StorageBits()) /
                             static_cast<double>(registry.KeyCount());
  return out;
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
        "SKIPPED: registry_footprint gate skipped under sanitizer build "
        "(mallinfo2 does not see the sanitizer's allocator)\n");
    return 0;
#else
    std::fprintf(stderr,
                 "--require-sanitizer-skip passed to a non-sanitizer build: "
                 "the footprint gate should have run for real\n");
    return 1;
#endif
  }
  const size_t keys = size_t{1} << (smoke ? 14 : 18);
  const std::vector<uint64_t> order = ShuffledKeys(keys);
  bench::Header("registry footprint: heap bytes and paper bits per key");
  std::printf("%zu keys x %d items, epsilon 0.1, batches of %zu, one tick "
              "per batch\n",
              keys, kItemsPerKey, kBatch);
  bench::PrintRow({"backend", "decay", "heap B/key", "bits/key"});
  struct Case {
    const char* backend_name;
    const char* decay_name;
    DecayPtr decay;
    Backend backend;
    uint64_t max_value;
    double bound;
  };
  const Case cases[] = {
      {"CEH", "sliwin:1024", SlidingWindowDecay::Create(1024).value(),
       Backend::kCeh, 1, kSmokeCehBound},
      {"CEH cold", "sliwin:1024", SlidingWindowDecay::Create(1024).value(),
       Backend::kCeh, 4, kSmokeCehColdBound},
      {"WBMH", "poly:1", PolynomialDecay::Create(1.0).value(),
       Backend::kWbmh, 1, kSmokeWbmhBound},
  };
  bool over = false;
  for (const Case& c : cases) {
    const Footprint f = Measure(c.decay, c.backend, order, keys, c.max_value);
    bench::PrintRow({c.backend_name, c.decay_name,
                     bench::Fmt(f.heap_bytes_per_key, 5),
                     bench::Fmt(f.storage_bits_per_key, 5)});
    if (smoke && f.heap_bytes_per_key > c.bound) {
      std::fprintf(stderr,
                   "FAIL: %s heap bytes/key %.1f exceed the gate %.1f\n",
                   c.backend_name, f.heap_bytes_per_key, c.bound);
      over = true;
    }
  }
  return over ? 1 : 0;
}
