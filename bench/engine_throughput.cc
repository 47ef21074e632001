// Experiment ENG — ingestion throughput of the multi-stream engine
// (docs/ENGINE.md): items/sec of AggregateRegistry as a function of batch
// size (1 / 64 / 4096), of ShardedAggregateEngine as a function of shard
// count, and of concurrent ProducerSessions as a function of producers x
// shards, over a power-law keyed stream. Two reproduction targets: the
// batch-first claim (batch=4096 must beat batch=1 by >= 5x on at least one
// histogram backend) and the session-redesign claim (8 producers x 8
// shards must beat 1x1 by >= 2x — shared-lock routing used to make that
// ratio go *below* one).
//
// Usage: engine_throughput [--smoke] [--smoke-sessions] [--out PATH]
//   --smoke           small sizes for CI; exits nonzero if max batch
//                     speedup < 5x
//   --smoke-sessions  multi-producer gate only: 8x8 must beat 1x1 by
//                     >= 2x; prints a SKIPPED banner and exits 0 on hosts
//                     with < 8 cores (the ratio is meaningless without
//                     real parallelism)
//   --smoke-atomics   wrapper-parity gate only: a tds::Atomic SpscRing must
//                     hold >= 0.95x the throughput of a raw std::atomic
//                     twin, proving the -DTDS_MODELCHECK=OFF wrappers are
//                     zero-cost; self-skips in modelcheck builds where
//                     the wrapped ring is deliberately instrumented
//   --out             JSON results path (default BENCH_engine.json)
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/factory.h"
#include "decay/exponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/producer_session.h"
#include "engine/registry.h"
#include "engine/spsc_ring.h"
#include "util/random.h"

namespace tds {
namespace {

struct BackendCase {
  std::string label;
  DecayPtr decay;
  Backend backend;
};

/// Bursty per-flow stream, the shape of the paper's applications (RED
/// per-flow state, per-customer usage): at any tick only a bounded set of
/// flows is active, a few heavy hitters recur every tick, and the long tail
/// churns across the full key space. Each 4096-item block is one tick with
/// 64 active flows drawn Pareto-style (rank = u^-2, so rank 1 recurs in
/// ~29% of draws while large ranks are effectively one-shot keys). Ticks
/// advance once per block, so every batch size in the sweep slices
/// identical (key, tick, value) sequences.
std::vector<KeyedItem> MakeStream(size_t items, uint64_t key_space,
                                  uint64_t seed) {
  constexpr size_t kBlock = 4096;
  constexpr size_t kActiveFlows = 64;
  std::vector<KeyedItem> stream;
  stream.reserve(items);
  Rng rng(seed);
  Tick t = 1;
  uint64_t active[kActiveFlows];
  for (size_t i = 0; i < items; ++i) {
    if (i % kBlock == 0) {
      if (i > 0) ++t;
      for (uint64_t& key : active) {
        const double u = rng.NextOpenDouble();
        const auto rank = static_cast<uint64_t>(1.0 / (u * u));
        key = std::min(rank - 1, key_space - 1);
      }
    }
    stream.push_back(KeyedItem{active[rng.NextBelow(kActiveFlows)], t,
                               1 + rng.NextBelow(4)});
  }
  return stream;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  std::string backend;
  std::string sweep;       // "batch", "shard", "session", or "ckpt"
  size_t param = 0;        // batch size, shard count, or churn percentage
  size_t producers = 1;    // concurrent ProducerSessions feeding the engine
  size_t items = 0;
  size_t keys = 0;
  double seconds = 0.0;
  double items_per_sec = 0.0;
  double check = 0.0;  // QueryTotal at the end: keeps work observable
};

/// Incremental-checkpoint write amplification: seed `population` keys,
/// commit the full generation, then touch `churn_pct`% of the keys and
/// commit again. The row records the churn generation's bytes (items)
/// against the full generation's (keys); query_total carries the ratio —
/// the <0.10 @ 1% churn claim docs/ENGINE.md makes for the segment log.
Row RunCheckpointChurnCase(const BackendCase& bc, size_t population,
                           size_t churn_pct) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = AggregateOptions::Builder()
                                   .backend(bc.backend)
                                   .epsilon(0.1)
                                   .Build()
                                   .value();
  options.shards = 4;
  auto engine = ShardedAggregateEngine::Create(bc.decay, options);
  TDS_CHECK(engine.ok());
  TDS_CHECK((*engine)->EnableCheckpointTracking().ok());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tds_bench_ckptlog").string();
  std::filesystem::remove_all(dir);
  auto log = CheckpointLog::Create(**engine, dir, {});
  TDS_CHECK(log.ok());

  Rng rng(91);
  constexpr size_t kBatch = 4096;
  ProducerSessionOptions session_options;
  session_options.staging_capacity = kBatch;
  auto producer = (*engine)->NewProducer(session_options);
  TDS_CHECK(producer.ok());
  std::vector<KeyedItem> batch;
  batch.reserve(kBatch);
  Tick t = 1;
  const auto drain = [&] {
    TDS_CHECK((*producer)->AddBatch(batch).ok());
    TDS_CHECK((*producer)->Flush().ok());
    batch.clear();
  };
  for (uint64_t k = 0; k < population; ++k) {
    batch.push_back(KeyedItem{k, t, 1 + rng.NextBelow(4)});
    if (batch.size() >= kBatch) drain();
  }
  drain();
  TDS_CHECK(log->WriteIncremental().ok());
  const uint64_t full_bytes = log->LiveBytes();

  ++t;
  const size_t churn = std::max<size_t>(1, population * churn_pct / 100);
  for (size_t i = 0; i < churn; ++i) {
    batch.push_back(KeyedItem{rng.NextBelow(population), t, 1});
    if (batch.size() >= kBatch) drain();
  }
  drain();
  const auto start = std::chrono::steady_clock::now();
  TDS_CHECK(log->WriteIncremental().ok());
  const double seconds = SecondsSince(start);
  uint64_t delta_bytes = 0;
  for (const CheckpointLog::ManifestEntry& entry : log->manifest().entries) {
    if (entry.gen_hi == log->manifest().generation) {
      delta_bytes += entry.length;
    }
  }
  std::filesystem::remove_all(dir);

  Row row;
  row.backend = bc.label;
  row.sweep = "ckpt";
  row.param = churn_pct;
  row.items = delta_bytes;
  row.keys = full_bytes;
  row.seconds = seconds;
  row.items_per_sec = static_cast<double>(delta_bytes) / seconds;
  row.check = full_bytes == 0
                  ? 0.0
                  : static_cast<double>(delta_bytes) /
                        static_cast<double>(full_bytes);
  return row;
}

Row RunBatchCase(const BackendCase& bc, const std::vector<KeyedItem>& stream,
                 size_t key_space, size_t batch) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(bc.backend)
                          .epsilon(0.1)
                          .Build()
                          .value();
  auto registry = AggregateRegistry::Create(bc.decay, options);
  TDS_CHECK(registry.ok());
  const auto start = std::chrono::steady_clock::now();
  if (batch == 1) {
    for (const KeyedItem& item : stream) {
      registry->Update(item.key, item.t, item.value);
    }
  } else {
    for (size_t i = 0; i < stream.size(); i += batch) {
      const size_t n = std::min(batch, stream.size() - i);
      registry->UpdateBatch(
          std::span<const KeyedItem>(stream.data() + i, n));
    }
  }
  const double seconds = SecondsSince(start);
  Row row;
  row.backend = bc.label;
  row.sweep = "batch";
  row.param = batch;
  row.items = stream.size();
  row.keys = key_space;
  row.seconds = seconds;
  row.items_per_sec = static_cast<double>(stream.size()) / seconds;
  row.check = registry->QueryTotal(registry->now());
  return row;
}

Row RunShardCase(const BackendCase& bc, const std::vector<KeyedItem>& stream,
                 size_t key_space, uint32_t shards, size_t batch) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = AggregateOptions::Builder()
                                   .backend(bc.backend)
                                   .epsilon(0.1)
                                   .Build()
                                   .value();
  options.shards = shards;
  auto engine = ShardedAggregateEngine::Create(bc.decay, options);
  TDS_CHECK(engine.ok());
  ProducerSessionOptions session_options;
  session_options.staging_capacity = batch;
  const auto start = std::chrono::steady_clock::now();
  auto session = (*engine)->NewProducer(session_options);
  TDS_CHECK(session.ok());
  for (size_t i = 0; i < stream.size(); i += batch) {
    const size_t n = std::min(batch, stream.size() - i);
    TDS_CHECK((*session)
                  ->AddBatch(std::span<const KeyedItem>(stream.data() + i, n))
                  .ok());
  }
  TDS_CHECK((*session)->Flush().ok());
  TDS_CHECK((*engine)->Flush().ok());
  const double seconds = SecondsSince(start);
  Row row;
  row.backend = bc.label;
  row.sweep = "shard";
  row.param = shards;
  row.items = stream.size();
  row.keys = key_space;
  row.seconds = seconds;
  row.items_per_sec = static_cast<double>(stream.size()) / seconds;
  row.check = (*engine)->QueryTotal((*engine)->ShardSnapshot(0)->now());
  return row;
}

/// The producers-x-shards sweep the redesign exists for: `producers`
/// threads each own a ProducerSession and feed disjoint slices of the same
/// stream. Producers advance tick-block by tick-block behind a barrier —
/// every session flushes its slice of a block before anyone stages the
/// next one — so each shard sees non-decreasing ticks no matter how the
/// flushes interleave.
Row RunSessionCase(const BackendCase& bc, const std::vector<KeyedItem>& stream,
                   size_t key_space, size_t producers, uint32_t shards,
                   size_t batch) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = AggregateOptions::Builder()
                                   .backend(bc.backend)
                                   .epsilon(0.1)
                                   .Build()
                                   .value();
  options.shards = shards;
  auto engine = ShardedAggregateEngine::Create(bc.decay, options);
  TDS_CHECK(engine.ok());
  constexpr size_t kBlock = 4096;  // MakeStream's items-per-tick block
  std::barrier barrier(static_cast<std::ptrdiff_t>(producers));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      ProducerSessionOptions session_options;
      session_options.staging_capacity = batch;
      auto session = (*engine)->NewProducer(session_options);
      TDS_CHECK(session.ok());
      for (size_t base = 0; base < stream.size(); base += kBlock) {
        const size_t block = std::min(kBlock, stream.size() - base);
        const size_t chunk = (block + producers - 1) / producers;
        const size_t lo = std::min(p * chunk, block);
        const size_t hi = std::min(lo + chunk, block);
        if (hi > lo) {
          TDS_CHECK((*session)
                        ->AddBatch(std::span<const KeyedItem>(
                            stream.data() + base + lo, hi - lo))
                        .ok());
          TDS_CHECK((*session)->Flush().ok());
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  TDS_CHECK((*engine)->Flush().ok());
  const double seconds = SecondsSince(start);
  Row row;
  row.backend = bc.label;
  row.sweep = "session";
  row.param = shards;
  row.producers = producers;
  row.items = stream.size();
  row.keys = key_space;
  row.seconds = seconds;
  row.items_per_sec = static_cast<double>(stream.size()) / seconds;
  row.check = (*engine)->QueryTotal((*engine)->ShardSnapshot(0)->now());
  return row;
}

/// Raw std::atomic twin of SpscRing's cursor protocol (engine/spsc_ring.h):
/// the same loads, stores, and memory orders, without the tds::Atomic
/// wrapper in between. Exists only for the --smoke-atomics parity gate —
/// if the wrapper costs anything with -DTDS_MODELCHECK=OFF, this twin
/// pulls ahead and the gate fails. bench/ sits outside the raw-atomic lint
/// rule's src/ scope, so the std::atomic here needs no suppression.
class RawSpscRing {
 public:
  explicit RawSpscRing(size_t capacity) {
    size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1;
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }

  size_t TryPushN(const uint64_t* items, size_t n) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    const size_t free_slots = slots_.size() - static_cast<size_t>(tail - head);
    const size_t count = n < free_slots ? n : free_slots;
    for (size_t i = 0; i < count; ++i) {
      slots_[static_cast<size_t>(tail + i) & mask_] = items[i];
    }
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  size_t TryPopN(uint64_t* out, size_t max) {
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

 private:
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

/// Seconds to move `items` values through a fresh `Ring` of 1024 slots
/// built in `storage`, in 64-item bursts — push a burst, pop it back,
/// accumulate a checksum so the compiler cannot elide the copies. Works
/// for both SpscRing<uint64_t> and RawSpscRing, which share the
/// TryPushN/TryPopN shape by construction.
template <typename Ring>
double TimeRingPass(void* storage, size_t items, uint64_t* checksum) {
  constexpr size_t kBurst = 64;
  Ring* ring = new (storage) Ring(1024);
  uint64_t in[kBurst];
  uint64_t out[kBurst];
  for (size_t i = 0; i < kBurst; ++i) in[i] = i + 1;
  const auto start = std::chrono::steady_clock::now();
  for (size_t done = 0; done < items; done += kBurst) {
    TDS_CHECK(ring->TryPushN(in, kBurst) == kBurst);
    TDS_CHECK(ring->TryPopN(out, kBurst) == kBurst);
    *checksum += out[kBurst - 1];
  }
  const double seconds = SecondsSince(start);
  ring->~Ring();
  return seconds;
}

/// Paired rounds for the wrapped and raw rings. A round moves `items`
/// values through each ring in 64 slices, alternating which ring goes
/// first, and keeps each ring's fastest slice: a neighbour's burst on a
/// shared host only lengthens slices. Both rings are built in the same
/// storage, one at a time, so their cursors share addresses and their
/// slots reuse the same freed block. Rings at different addresses ran up
/// to 16% apart for a whole process, in either direction, which no number
/// of rounds in that process could average out. The round's ratio is the
/// wrapped/raw throughput of the fastest slices; the verdict is the median
/// round. `wrapped` and `raw` receive each ring's fastest slice.
double RunAtomicsParity(size_t items, int rounds, Row* wrapped, Row* raw) {
  constexpr size_t kSlices = 64;
  const size_t slice_items = items / kSlices;
  alignas(64) std::byte storage[std::max(sizeof(SpscRing<uint64_t>),
                                         sizeof(RawSpscRing))];
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    uint64_t wrapped_sum = 0;
    uint64_t raw_sum = 0;
    double wrapped_best = 0.0;
    double raw_best = 0.0;
    for (size_t s = 0; s < kSlices; ++s) {
      double w;
      double x;
      if ((r + s) % 2 == 0) {
        w = TimeRingPass<SpscRing<uint64_t>>(storage, slice_items,
                                             &wrapped_sum);
        x = TimeRingPass<RawSpscRing>(storage, slice_items, &raw_sum);
      } else {
        x = TimeRingPass<RawSpscRing>(storage, slice_items, &raw_sum);
        w = TimeRingPass<SpscRing<uint64_t>>(storage, slice_items,
                                             &wrapped_sum);
      }
      if (s == 0 || w < wrapped_best) wrapped_best = w;
      if (s == 0 || x < raw_best) raw_best = x;
    }
    TDS_CHECK(wrapped_sum == raw_sum);
    ratios.push_back(raw_best / wrapped_best);
    for (auto [row, label, best, sum] :
         {std::tuple{wrapped, "ring-wrapped", wrapped_best, wrapped_sum},
          std::tuple{raw, "ring-raw", raw_best, raw_sum}}) {
      const double rate = static_cast<double>(slice_items) / best;
      if (rate <= row->items_per_sec) continue;
      row->backend = label;
      row->sweep = "atomics";
      row->param = 64;
      row->items = slice_items;
      row->seconds = best;
      row->items_per_sec = rate;
      row->check = static_cast<double>(sum);
    }
  }
  const auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(rounds / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  return *mid;
}

void WriteJson(const std::string& path, const std::string& mode,
               const std::vector<Row>& rows, double max_speedup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_throughput\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", mode.c_str());
  std::fprintf(f, "  \"max_batch_speedup\": %.3f,\n", max_speedup);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"sweep\": \"%s\", "
                 "\"param\": %zu, \"producers\": %zu, \"items\": %zu, "
                 "\"keys\": %zu, \"seconds\": %.6f, "
                 "\"items_per_sec\": %.1f, \"query_total\": %.6g}%s\n",
                 r.backend.c_str(), r.sweep.c_str(), r.param, r.producers,
                 r.items, r.keys, r.seconds, r.items_per_sec, r.check,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool smoke_sessions = false;
  bool smoke_atomics = false;
  bool require_sanitizer_skip = false;
  std::string out = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--smoke-sessions") == 0) {
      smoke_sessions = true;
    } else if (std::strcmp(argv[i], "--smoke-atomics") == 0) {
      smoke_atomics = true;
    } else if (std::strcmp(argv[i], "--require-sanitizer-skip") == 0) {
      require_sanitizer_skip = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--smoke-sessions] "
                   "[--smoke-atomics] [--require-sanitizer-skip] "
                   "[--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (require_sanitizer_skip) {
    // Sanitizer builds must skip the perf-ratio gate with an explicit,
    // ctest-visible reason (SKIP_REGULAR_EXPRESSION matches this banner);
    // an unsanitized build being asked to skip is a build-system bug.
#ifdef TDS_SANITIZE_BUILD
    std::printf(
        "SKIPPED: engine_throughput smoke gate skipped under sanitizer "
        "build (perf ratios are meaningless with instrumentation)\n");
    return 0;
#else
    std::fprintf(stderr,
                 "--require-sanitizer-skip passed to a non-sanitizer build: "
                 "the smoke gate should have run for real\n");
    return 1;
#endif
  }
  if (smoke_sessions) {
    // The multi-producer gate: the redesign's headline ratio. On hosts
    // that cannot actually run 8 producer threads in parallel the ratio
    // measures scheduler time-slicing, not the ingest path, so the gate
    // self-skips with a ctest-visible banner rather than flaking.
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 8) {
      std::printf(
          "SKIPPED: engine_throughput multi-producer gate skipped on a "
          "%u-core host (8 producer sessions cannot run in parallel, so "
          "the 8x8 >= 2x 1x1 ratio is meaningless)\n",
          cores);
      return 0;
    }
    const size_t gate_items = 1 << 17;
    const size_t gate_keys = 1 << 16;
    const BackendCase bc{"CEH", SlidingWindowDecay::Create(4096).value(),
                         Backend::kCeh};
    const std::vector<KeyedItem> gate_stream =
        MakeStream(gate_items, gate_keys, 43);
    const Row solo = RunSessionCase(bc, gate_stream, gate_keys, 1, 1, 4096);
    const Row fleet = RunSessionCase(bc, gate_stream, gate_keys, 8, 8, 4096);
    const double ratio = fleet.items_per_sec / solo.items_per_sec;
    std::printf("session 8px8s vs 1px1s: %.0f vs %.0f items/sec (%.2fx)\n",
                fleet.items_per_sec, solo.items_per_sec, ratio);
    if (ratio < 2.0) {
      std::fprintf(stderr,
                   "FAIL: multi-producer gate requires 8 producers x 8 "
                   "shards >= 2x the 1x1 baseline\n");
      return 1;
    }
    return 0;
  }
  if (smoke_atomics) {
    // Wrapper zero-cost gate: with -DTDS_MODELCHECK=OFF, tds::Atomic is a
    // forwarding shim over std::atomic with no instrumentation branch, so
    // a SpscRing built on it must match a raw std::atomic twin. In builds
    // that deliberately instrument the wrapped ring the comparison would
    // measure the instrumentation, not the wrapper — skip with a
    // ctest-visible banner, same contract as the sanitizer skip.
#ifdef TDS_MODELCHECK
    std::printf(
        "SKIPPED: engine_throughput atomics parity gate skipped: the "
        "wrapped ring is deliberately instrumented in this build flavor "
        "(model check), so wrapper-vs-raw parity is not measurable\n");
    return 0;
#else
    const size_t gate_items = size_t{1} << 24;
    Row wrapped;
    Row raw;
    const double ratio = RunAtomicsParity(gate_items, 21, &wrapped, &raw);
    std::printf(
        "atomics wrapped vs raw ring: best %.0f vs %.0f items/sec, median "
        "paired ratio %.3fx\n",
        wrapped.items_per_sec, raw.items_per_sec, ratio);
    if (ratio < 0.95) {
      std::fprintf(stderr,
                   "FAIL: atomics parity gate requires the tds::Atomic ring "
                   ">= 0.95x the raw std::atomic ring (the production "
                   "wrappers are supposed to be zero-cost)\n");
      return 1;
    }
    return 0;
#endif
  }
  const size_t items = smoke ? 1 << 18 : 1 << 22;
  const size_t key_space = smoke ? 1 << 16 : 1 << 20;
  const size_t shard_items = smoke ? 1 << 17 : 1 << 21;

  const std::vector<BackendCase> cases = {
      {"CEH", SlidingWindowDecay::Create(4096).value(), Backend::kCeh},
      {"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
      {"EWMA", ExponentialDecay::Create(0.001).value(), Backend::kEwma},
  };
  const std::vector<KeyedItem> stream = MakeStream(items, key_space, 42);
  const std::vector<KeyedItem> shard_stream =
      MakeStream(shard_items, key_space, 43);

  std::vector<Row> rows;
  double max_speedup = 0.0;
  std::printf("%-8s %-6s %10s %12s %14s\n", "backend", "sweep", "param",
              "seconds", "items/sec");
  for (const BackendCase& bc : cases) {
    double base = 0.0;
    for (const size_t batch : {size_t{1}, size_t{64}, size_t{4096}}) {
      const Row row = RunBatchCase(bc, stream, key_space, batch);
      rows.push_back(row);
      std::printf("%-8s %-6s %10zu %12.3f %14.0f\n", row.backend.c_str(),
                  row.sweep.c_str(), row.param, row.seconds,
                  row.items_per_sec);
      if (batch == 1) base = row.items_per_sec;
      if (batch == 4096 && base > 0.0) {
        const double speedup = row.items_per_sec / base;
        std::printf("%-8s batch=4096 vs batch=1 speedup: %.2fx\n",
                    bc.label.c_str(), speedup);
        if (speedup > max_speedup) max_speedup = speedup;
      }
    }
  }
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    const Row row = RunShardCase(cases[0], shard_stream, key_space, shards,
                                 4096);
    rows.push_back(row);
    std::printf("%-8s %-6s %10zu %12.3f %14.0f\n", row.backend.c_str(),
                row.sweep.c_str(), row.param, row.seconds, row.items_per_sec);
  }
  // Checkpoint write-amplification sweep: incremental bytes committed
  // after touching 100% / 10% / 1% of a settled key population. The 1%
  // row is the segment-log claim — its ratio (query_total) must sit well
  // under the 0.10 that rewriting the full snapshot would approximate.
  {
    const size_t population = smoke ? size_t{1} << 12 : size_t{1} << 15;
    for (const size_t churn_pct : {size_t{100}, size_t{10}, size_t{1}}) {
      const Row row = RunCheckpointChurnCase(cases[0], population, churn_pct);
      rows.push_back(row);
      std::printf("%-8s %-6s %9zu%% %12.3f %10zu/%zu B (%.3fx)\n",
                  row.backend.c_str(), row.sweep.c_str(), row.param,
                  row.seconds, row.items, row.keys, row.check);
    }
  }
  // Wrapper-parity rows: the tds::Atomic ring vs its raw std::atomic twin
  // (fastest slice of 3 paired rounds). The smoke gate asserts the >= 0.95x
  // floor; the full bench records the measured rates here so
  // BENCH_engine.json carries the zero-cost evidence alongside the
  // throughput sweeps.
#ifndef TDS_MODELCHECK
  {
    Row wrapped;
    Row raw;
    RunAtomicsParity(size_t{1} << 25, 3, &wrapped, &raw);
    for (const Row& row : {wrapped, raw}) {
      rows.push_back(row);
      std::printf("%-14s %-7s %8zu %12.3f %14.0f\n", row.backend.c_str(),
                  row.sweep.c_str(), row.param, row.seconds,
                  row.items_per_sec);
    }
  }
#endif
  struct Combo {
    size_t producers;
    uint32_t shards;
  };
  for (const Combo combo : {Combo{1, 1}, Combo{1, 8}, Combo{2, 2},
                            Combo{4, 4}, Combo{8, 8}}) {
    const Row row = RunSessionCase(cases[0], shard_stream, key_space,
                                   combo.producers, combo.shards, 4096);
    rows.push_back(row);
    std::printf("%-8s %-6s %5zupx%3us %12.3f %14.0f\n", row.backend.c_str(),
                row.sweep.c_str(), row.producers, combo.shards, row.seconds,
                row.items_per_sec);
  }

  WriteJson(out, smoke ? "smoke" : "full", rows, max_speedup);
  std::printf("max batch=4096 speedup over batch=1: %.2fx\n", max_speedup);
  if (smoke && max_speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: smoke gate requires >= 5x batch speedup on at least "
                 "one backend\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tds

int main(int argc, char** argv) { return tds::Main(argc, argv); }
