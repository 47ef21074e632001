// Engine benchmark: drives ShardedAggregateEngine through its public API on
// one named workload, checks every answer it can against an exact reference,
// and reports end-to-end metrics (what an engine user sees) and, with
// --trace, per-layer metrics (each layer timed from outside, around the
// bench's own calls into it). README.md explains the workloads and metrics.
//
// Usage:
//   engine_bench --workload=NAME --seed=N [--seconds=S] [--scale=F]
//                [--trace=FILE] [--out-dir=DIR] [--rep=I] [--commit=SHA]
//
//   --workload  hot_burst | cold_keys | point_reads | durable_state
//   --seed      input seed: the same seed gives the same inputs
//   --seconds   length of the timed phase (default 20)
//   --scale     multiplies key populations, chunk sizes and paced rates
//               (default 1; the smoke run uses 0.01)
//   --trace     record spans, write them to FILE as Chrome trace-event
//               JSON, and run the isolated layer replays afterwards
//   --out-dir   where the result JSON and checkpoint directories go
//               (default results)
//   --rep, --commit  provenance recorded in the result JSON
//
// Exit status: 0 when every correctness check passed, 1 on a violation or a
// failed operation, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/exact.h"
#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/merged_snapshot.h"
#include "engine/producer_session.h"
#include "engine/registry.h"
#include "engine/spsc_ring.h"
#include "engine/standby.h"
#include "util/random.h"
#include "util/status.h"

#ifndef EB_BUILD_TYPE
#define EB_BUILD_TYPE "unknown"
#endif
#ifndef EB_CXX_FLAGS
#define EB_CXX_FLAGS "unknown"
#endif

namespace tds {
namespace {

using Clock = std::chrono::steady_clock;
using ShardStats = ShardedAggregateEngine::ShardStats;

// Settings shared by every workload.
constexpr size_t kBlock = 4096;  // items per tick block, one AddBatch each
constexpr uint32_t kShards = 2;
constexpr double kEpsilon = 0.1;
constexpr size_t kSampleKeys = 256;
constexpr int kSetupReps = 5;
constexpr size_t kTopK = 100;
// With tracing on, spans are recorded in one slice of this many blocks out
// of every four, so one run yields both a traced and an untraced AddBatch
// cost and the longest run stays within the span buffer.
constexpr uint64_t kTraceSlice = 64;
constexpr size_t kTraceCapacity = size_t{1} << 18;
constexpr int64_t kPollNs = 50'000;  // generator's visibility poll period

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Millis(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

double Micros(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

double PerItemNs(int64_t from_ns, int64_t to_ns, size_t items) {
  return static_cast<double>(to_ns - from_ns) / static_cast<double>(items);
}

void SleepUntil(int64_t ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(ns)));
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Mean of the samples between the `trim` and 1 - `trim` quantiles. Robust
/// to a few stalled samples, like a median, but without the median's jump
/// when the middle of the distribution is split between two groups (blocks
/// that did or did not wait behind a shard clone). 0 for no samples.
double TrimmedMean(std::vector<double> v, double trim) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto cut = static_cast<size_t>(trim * static_cast<double>(v.size()));
  const size_t end = std::max(cut + 1, v.size() - cut);
  double sum = 0.0;
  for (size_t i = cut; i < end; ++i) sum += v[i];
  return sum / static_cast<double>(end - cut);
}

// ---------------------------------------------------------------- tracing

/// Spans recorded around the bench's own calls into the engine's layers.
/// The buffer is preallocated, slots are claimed with one relaxed
/// fetch_add, and spans are read only after every recording thread joined.
class Trace {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int32_t tid = 0;
    uint64_t request = 0;
  };

  explicit Trace(size_t capacity) : spans_(capacity) {}

  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Claims a slot and stamps the start; -1 once the buffer is full.
  int32_t Begin(const char* name, int32_t parent, uint64_t request,
                int32_t tid) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) return -1;
    spans_[i] = Span{name, NowNs(), 0, parent, tid, request};
    return static_cast<int32_t>(i);
  }
  void End(int32_t i) { spans_[static_cast<size_t>(i)].end_ns = NowNs(); }

  size_t size() const {
    return std::min(next_.load(std::memory_order_relaxed), spans_.size());
  }
  size_t dropped() const {
    return next_.load(std::memory_order_relaxed) - size();
  }
  const Span& at(size_t i) const { return spans_[i]; }

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<bool> on_{true};
};

/// RAII span. A root span is recorded while the trace is on; a child span
/// is recorded exactly when its parent was, so recorded spans always nest.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, uint64_t request, int32_t tid,
             const ScopedSpan* parent = nullptr)
      : trace_(trace) {
    if (trace == nullptr) return;
    if (parent == nullptr ? trace->on() : parent->index_ >= 0) {
      index_ = trace->Begin(name, parent == nullptr ? -1 : parent->index_,
                            request, tid);
    }
  }
  ~ScopedSpan() {
    if (index_ >= 0) trace_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int32_t index_ = -1;
};

// ------------------------------------------------------ failure accounting

/// Counts attempted operations and failures (every non-OK Status, every
/// impossible answer, every violated invariant). Thread-safe.
class Ops {
 public:
  bool Check(const Status& status, const char* what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (status.ok()) return true;
    Fail(std::string(what) + ": " + status.ToString());
    return false;
  }
  void Count() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(std::string what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    if (messages_.size() < 16) messages_.push_back(std::move(what));
  }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return messages_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
};

// --------------------------------------------------------------- workloads

enum class Shape { kBurst, kCold, kUniform, kSkewed };

struct Workload {
  std::string name;
  Shape shape = Shape::kBurst;
  Backend backend = Backend::kCeh;
  std::string decay_label;
  DecayPtr decay;
  uint64_t key_space = 0;
  size_t chunk_items = 0;      ///< generated once, replayed pass after pass
  bool prime = false;          ///< set-up creates every key, then warms up
  double items_per_s = 0.0;    ///< paced ingest rate; 0 = closed loop
  double queries_per_s = 0.0;  ///< QueryKey reader rate; 0 = no reader
  size_t cycle_items = 0;      ///< durability cycle period; 0 = no cycles
};

std::optional<Workload> MakeWorkload(const std::string& name, double scale) {
  const auto scaled = [scale](double v) {
    return std::max(1.0, std::round(v * scale));
  };
  const auto whole_blocks = [](double items) {
    return kBlock * static_cast<size_t>(std::ceil(items / kBlock));
  };
  Workload w;
  w.name = name;
  const auto sliding_window = [&w](Tick window) {
    w.decay_label = "sliwin:" + std::to_string(window);
    w.decay = SlidingWindowDecay::Create(window).value();
  };
  if (name == "hot_burst") {
    w.shape = Shape::kBurst;
    w.backend = Backend::kWbmh;
    w.decay_label = "poly:1";
    w.decay = PolynomialDecay::Create(1.0).value();
    w.key_space = static_cast<uint64_t>(scaled(1 << 20));
    w.chunk_items = whole_blocks(scaled(1 << 21));
  } else if (name == "cold_keys") {
    // Each key is visited once per 64 ticks, so a 1024-tick window holds
    // 16 items per key and memory reaches its plateau early in the run.
    w.shape = Shape::kCold;
    sliding_window(1024);
    w.key_space = static_cast<uint64_t>(scaled(1 << 18));
    w.chunk_items = whole_blocks(4.0 * static_cast<double>(w.key_space));
    w.prime = true;
  } else if (name == "point_reads") {
    // The 1024-tick window fills 4 s into the run; point reads then clone
    // a steady state and the writers stay clear of saturation.
    w.shape = Shape::kUniform;
    sliding_window(1024);
    w.key_space = static_cast<uint64_t>(scaled(1 << 13));
    w.chunk_items = whole_blocks(scaled(1 << 20));
    w.prime = true;
    w.items_per_s = scaled(1e6);
    w.queries_per_s = 20.0;
  } else if (name == "durable_state") {
    // One cycle per 2^18 items (524 ms) leaves room for a compacting
    // commit (~400 ms), so a compaction does not push the next cycle late.
    w.shape = Shape::kSkewed;
    sliding_window(1024);
    w.key_space = static_cast<uint64_t>(scaled(1 << 15));
    w.chunk_items = whole_blocks(scaled(1 << 20));
    w.prime = true;
    w.items_per_s = scaled(5e5);
    w.cycle_items = static_cast<size_t>(scaled(1 << 18));
  } else {
    return std::nullopt;
  }
  return w;
}

ShardedAggregateEngine::Options EngineOptions(const Workload& w) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = AggregateOptions::Builder()
                                   .backend(w.backend)
                                   .epsilon(kEpsilon)
                                   .Build()
                                   .value();
  options.shards = kShards;
  return options;
}

/// The paper's guarantee for the backend: CEH over a sliding window is
/// (1 +- eps); WBMH is one-sided (1 + eps) bucketing times (1 + eps) count
/// rounding.
double ErrorBound(Backend backend) {
  return backend == Backend::kWbmh ? (1 + kEpsilon) * (1 + kEpsilon) - 1
                                   : kEpsilon;
}

/// Pareto-style rank draw: rank = u^-2, so rank 1 takes ~29% of draws.
uint64_t SkewedKey(Rng& rng, uint64_t key_space) {
  const double u = rng.NextOpenDouble();
  const double rank = std::min(1.0 / (u * u), static_cast<double>(key_space));
  return static_cast<uint64_t>(rank) - 1;
}

void Shuffle(std::vector<uint64_t>& v, Rng& rng) {
  for (size_t j = v.size(); j > 1; --j) {
    std::swap(v[j - 1], v[rng.NextBelow(j)]);
  }
}

/// The generated input. Every block holds kBlock items and global block g
/// carries tick g + 1: the prime blocks first (when the workload has them),
/// then the chunk replayed pass after pass.
struct Input {
  std::vector<KeyedItem> prime;
  std::vector<KeyedItem> chunk;
  uint64_t prime_blocks = 0;
  uint64_t chunk_blocks = 0;
  uint64_t setup_blocks = 0;  ///< blocks applied during set-up

  const KeyedItem* Source(uint64_t g) const {
    if (g < prime_blocks) return prime.data() + g * kBlock;
    return chunk.data() + ((g - prime_blocks) % chunk_blocks) * kBlock;
  }
  void Block(uint64_t g, KeyedItem* out) const {
    const KeyedItem* src = Source(g);
    const Tick t = static_cast<Tick>(g + 1);
    for (size_t i = 0; i < kBlock; ++i) {
      out[i] = KeyedItem{src[i].key, t, src[i].value};
    }
  }
};

Input MakeInput(const Workload& w, uint64_t seed) {
  Input in;
  Rng rng(HashCombine(seed, 0x696e707574));
  in.chunk.resize(w.chunk_items);
  switch (w.shape) {
    case Shape::kBurst: {
      // 64 active flows per block, drawn Pareto-style: a few heavy hitters
      // recur every block while the tail churns over the key space.
      constexpr size_t kActiveFlows = 64;
      uint64_t active[kActiveFlows];
      for (size_t i = 0; i < in.chunk.size(); ++i) {
        if (i % kBlock == 0) {
          for (uint64_t& key : active) key = SkewedKey(rng, w.key_space);
        }
        in.chunk[i].key = active[rng.NextBelow(kActiveFlows)];
      }
      break;
    }
    case Shape::kCold: {
      // Shuffled passes over the whole key space: run length 1 per block.
      std::vector<uint64_t> perm(w.key_space);
      for (uint64_t k = 0; k < w.key_space; ++k) perm[k] = k;
      size_t pos = perm.size();
      for (KeyedItem& item : in.chunk) {
        if (pos == perm.size()) {
          Shuffle(perm, rng);
          pos = 0;
        }
        item.key = perm[pos++];
      }
      break;
    }
    case Shape::kUniform:
      for (KeyedItem& item : in.chunk) item.key = rng.NextBelow(w.key_space);
      break;
    case Shape::kSkewed:
      for (KeyedItem& item : in.chunk) item.key = SkewedKey(rng, w.key_space);
      break;
  }
  for (KeyedItem& item : in.chunk) item.value = 1 + rng.NextBelow(4);
  if (w.prime) {
    std::vector<uint64_t> keys(w.key_space);
    for (uint64_t k = 0; k < w.key_space; ++k) keys[k] = k;
    Shuffle(keys, rng);
    in.prime.resize(kBlock * ((keys.size() + kBlock - 1) / kBlock));
    for (size_t i = 0; i < in.prime.size(); ++i) {
      in.prime[i] = KeyedItem{keys[i % keys.size()], 0, 1};
    }
  }
  in.prime_blocks = in.prime.size() / kBlock;
  in.chunk_blocks = in.chunk.size() / kBlock;
  // Set-up ends with one warm-up pass of the chunk, so caches are filled
  // and every key the timed phase touches exists before timing starts.
  in.setup_blocks = in.prime_blocks + in.chunk_blocks;
  return in;
}

/// Items each shard receives through any global block. These workloads run
/// no migrations, so RouteForKey is fixed for the whole run.
class ShardTargets {
 public:
  ShardTargets(const Input& in, const ShardedAggregateEngine& engine)
      : in_(&in) {
    const auto cumulate = [&](const std::vector<KeyedItem>& items) {
      std::vector<std::array<uint64_t, kShards>> cum(items.size() / kBlock + 1);
      for (size_t b = 0; b + 1 < cum.size(); ++b) {
        cum[b + 1] = cum[b];
        for (size_t i = 0; i < kBlock; ++i) {
          ++cum[b + 1][engine.RouteForKey(items[b * kBlock + i].key)];
        }
      }
      return cum;
    };
    prime_cum_ = cumulate(in.prime);
    chunk_cum_ = cumulate(in.chunk);
  }

  /// Items routed to `shard` in global blocks [0, g].
  uint64_t Through(uint64_t g, uint32_t shard) const {
    if (g < in_->prime_blocks) return prime_cum_[g + 1][shard];
    const uint64_t q = g - in_->prime_blocks;
    const uint64_t pass = q / in_->chunk_blocks;
    const uint64_t idx = q % in_->chunk_blocks;
    return prime_cum_.back()[shard] + pass * chunk_cum_.back()[shard] +
           chunk_cum_[idx + 1][shard];
  }

 private:
  const Input* in_;
  std::vector<std::array<uint64_t, kShards>> prime_cum_;
  std::vector<std::array<uint64_t, kShards>> chunk_cum_;
};

/// Visible lag: a block is visible once every shard's items_applied covers
/// its cumulative count through that block.
class LagTracker {
 public:
  explicit LagTracker(const ShardTargets& targets) : targets_(&targets) {}

  void Add(uint64_t g, int64_t due_ns) { pending_.push_back({g, due_ns}); }

  void Resolve(const std::vector<ShardStats>& stats, int64_t now_ns,
               std::vector<double>* lag_ms) {
    while (!pending_.empty()) {
      const Pending& p = pending_.front();
      for (uint32_t s = 0; s < stats.size(); ++s) {
        if (stats[s].items_applied < targets_->Through(p.block, s)) return;
      }
      lag_ms->push_back(static_cast<double>(now_ns - p.due_ns) / 1e6);
      pending_.pop_front();
    }
  }

 private:
  struct Pending {
    uint64_t block;
    int64_t due_ns;
  };
  const ShardTargets* targets_;
  std::deque<Pending> pending_;
};

/// Exact reference for 256 seeded sample keys: per-key (block, value) lists
/// are built from the input before timing, and the ExactDecayedSums are fed
/// from them only after timing, so the timed loop pays nothing for them.
class Oracle {
 public:
  Oracle(const Workload& w, const Input& in, uint64_t seed) {
    std::vector<uint64_t> candidates;
    if (w.prime) {
      candidates.resize(w.key_space);
      for (uint64_t k = 0; k < w.key_space; ++k) candidates[k] = k;
    } else {
      for (const KeyedItem& item : in.chunk) candidates.push_back(item.key);
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    }
    Rng rng(HashCombine(seed, 0x6f7261636c65));
    const size_t n = std::min(kSampleKeys, candidates.size());
    for (size_t i = 0; i < n; ++i) {
      std::swap(candidates[i],
                candidates[i + rng.NextBelow(candidates.size() - i)]);
      keys_.push_back(candidates[i]);
    }
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < keys_.size(); ++i) index[keys_[i]] = i;
    prime_.resize(keys_.size());
    chunk_.resize(keys_.size());
    const auto collect = [&](const std::vector<KeyedItem>& items,
                             std::vector<std::vector<Entry>>& out) {
      for (size_t i = 0; i < items.size(); ++i) {
        const auto it = index.find(items[i].key);
        if (it == index.end()) continue;
        std::vector<Entry>& entries = out[it->second];
        const auto block = static_cast<uint32_t>(i / kBlock);
        if (!entries.empty() && entries.back().block == block) {
          entries.back().value += items[i].value;
        } else {
          entries.push_back(Entry{block, items[i].value});
        }
      }
    };
    collect(in.prime, prime_);
    collect(in.chunk, chunk_);
  }

  const std::vector<uint64_t>& keys() const { return keys_; }

  /// Max relative error of `snapshot` over the sampled keys, given that
  /// global blocks [0, blocks) were ingested. A key whose exact sum is 0
  /// must read 0; any other miss beyond `bound` is a violation.
  double Check(const MergedSnapshot& snapshot, const Input& in, uint64_t blocks,
               const DecayPtr& decay, double bound, Ops& ops) const {
    const Tick cut = snapshot.cut();
    double worst = 0.0;
    for (size_t k = 0; k < keys_.size(); ++k) {
      auto exact = ExactDecayedSum::Create(decay);
      if (!ops.Check(exact.status(), "ExactDecayedSum::Create")) return worst;
      for (const Entry& e : prime_[k]) {
        if (e.block >= std::min(blocks, in.prime_blocks)) break;
        (*exact)->Update(static_cast<Tick>(e.block) + 1, e.value);
      }
      for (uint64_t base = in.prime_blocks; base < blocks;
           base += in.chunk_blocks) {
        for (const Entry& e : chunk_[k]) {
          const uint64_t g = base + e.block;
          if (g >= blocks) break;
          (*exact)->Update(static_cast<Tick>(g) + 1, e.value);
        }
      }
      const double truth = (*exact)->Query(cut);
      const double estimate = snapshot.Query(keys_[k], cut);
      ops.Count();
      if (truth <= 0.0) {
        if (estimate != 0.0) {
          ops.Fail("key " + std::to_string(keys_[k]) + " reads " +
                   std::to_string(estimate) + ", exact 0");
        }
        continue;
      }
      const double err = std::fabs(estimate - truth) / truth;
      worst = std::max(worst, err);
      if (!(err <= bound + 1e-9)) {
        ops.Fail("key " + std::to_string(keys_[k]) + " relative error " +
                 std::to_string(err) + " exceeds " + std::to_string(bound));
      }
    }
    return worst;
  }

 private:
  struct Entry {
    uint32_t block;
    uint64_t value;
  };
  std::vector<uint64_t> keys_;
  std::vector<std::vector<Entry>> prime_;
  std::vector<std::vector<Entry>> chunk_;
};

// ------------------------------------------------------------------ system

/// The system under test. Members are released in reverse declaration
/// order: follower and log before the session, the session before the
/// engine it flushes into.
struct System {
  std::unique_ptr<ShardedAggregateEngine> engine;
  std::unique_ptr<ProducerSession> session;
  std::optional<CheckpointLog> log;
  std::optional<StandbyFollower> follower;

  void Reset() {
    follower.reset();
    log.reset();
    session.reset();
    engine.reset();
  }
};

/// Brings a fresh system to the state the timed phase starts from: engine
/// and session up, the set-up blocks applied, and for durable_state a full
/// checkpoint committed and applied by the follower.
bool SetUp(const Workload& w, const Input& in, const std::string& ckpt_dir,
           Ops& ops, System* sys) {
  auto engine = ShardedAggregateEngine::Create(w.decay, EngineOptions(w));
  if (!ops.Check(engine.status(), "ShardedAggregateEngine::Create")) {
    return false;
  }
  sys->engine = std::move(engine).value();
  if (w.cycle_items > 0) {
    if (!ops.Check(sys->engine->EnableCheckpointTracking(),
                   "EnableCheckpointTracking")) {
      return false;
    }
    auto log = CheckpointLog::Create(*sys->engine, ckpt_dir, {});
    if (!ops.Check(log.status(), "CheckpointLog::Create")) return false;
    sys->log.emplace(std::move(log).value());
  }
  ProducerSessionOptions session_options;
  session_options.staging_capacity = kBlock;
  auto session = sys->engine->NewProducer(session_options);
  if (!ops.Check(session.status(), "NewProducer")) return false;
  sys->session = std::move(session).value();
  std::vector<KeyedItem> block(kBlock);
  for (uint64_t g = 0; g < in.setup_blocks; ++g) {
    in.Block(g, block.data());
    if (!ops.Check(sys->session->AddBatch(block), "AddBatch")) return false;
  }
  if (!ops.Check(sys->session->Flush(), "ProducerSession::Flush") ||
      !ops.Check(sys->engine->Flush(), "Flush")) {
    return false;
  }
  if (sys->log) {
    if (!ops.Check(sys->log->WriteIncremental(), "WriteIncremental")) {
      return false;
    }
    auto follower = StandbyFollower::Create(
        w.decay, EngineOptions(w).registry, ckpt_dir);
    if (!ops.Check(follower.status(), "StandbyFollower::Create")) return false;
    sys->follower.emplace(std::move(follower).value());
    if (!ops.Check(sys->follower->ApplyNew(), "ApplyNew")) return false;
  }
  return true;
}

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct ProcUsage {
  double cpu_s = 0.0;
  uint64_t ctx_switches = 0;
  double max_rss_mb = 0.0;
};

ProcUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  ProcUsage u;
  u.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

/// Samples the generator thread collects, one per block.
struct IngestSamples {
  std::vector<double> add_batch_us;
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
  std::vector<double> queue_depth;
  double add_us_traced = 0.0;
  double add_us_untraced = 0.0;
  uint64_t blocks_traced = 0;
  uint64_t blocks_untraced = 0;

  /// Makes room for `blocks` samples and touches it, so the bench's own
  /// memory does not grow (and step at a capacity doubling) while timing.
  void Reserve(size_t blocks) {
    for (std::vector<double>* v : {&add_batch_us, &lag_ms, &late_ms,
                                   &queue_depth}) {
      v->assign(blocks, 0.0);
      v->clear();
    }
  }
};

/// Samples the durability control thread collects, one per cycle.
struct CycleSamples {
  std::vector<double> cycle_ms;
  std::vector<double> flush_us;
  std::vector<double> commit_ms;
  std::vector<double> commit_plain_ms;
  std::vector<double> commit_compacting_ms;
  std::vector<double> apply_ms;
  std::vector<double> apply_incremental_ms;
  std::vector<double> apply_rebuild_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> topk_ms;
  std::vector<double> bytes_per_commit;
  uint64_t compactions = 0;
  uint64_t live_bytes_max = 0;
};

/// Shard counters after the timed phase, summed over shards unless named
/// otherwise.
struct ShardTotals {
  uint64_t applied_timed = 0;
  uint64_t busiest_timed = 0;  ///< the busiest shard's timed-phase items
  uint64_t rejected = 0;
  uint64_t park_count = 0;
  uint64_t max_stall = 0;  ///< max over shards
  uint64_t live_keys = 0;
  uint64_t arena_extent = 0;
};

/// Isolated single-thread replays of the workload's own stream, run after
/// the traced workload phase.
struct LayerReplays {
  double ring_ns_per_item = 0.0;
  double registry_ns_per_item = 0.0;
  double backend_ns_per_item = 0.0;
  double items_per_run = 0.0;
  double storage_bits_per_key = 0.0;
  double encode_us_per_key = 0.0;
  double decode_us_per_key = 0.0;
  double capture_delta_ms = 0.0;
  double clone_us_per_key = 0.0;
};

// Receives replay checksums so the timed copies stay observable.
std::atomic<uint64_t> g_sink{0};

double MedianOf3(const std::function<double()>& once) {
  std::vector<double> v = {once(), once(), once()};
  return Quantile(v, 0.5);
}

double RingReplay(const Input& in) {
  SpscRing<KeyedItem> ring(1 << 16);
  std::vector<KeyedItem> out(kBlock);
  const KeyedItem* burst = in.chunk.data();
  constexpr size_t kItems = size_t{1} << 23;
  return MedianOf3([&] {
    uint64_t checksum = 0;
    const int64_t t0 = NowNs();
    for (size_t done = 0; done < kItems; done += kBlock) {
      ring.TryPushN(burst, kBlock);
      ring.TryPopN(out.data(), kBlock);
      checksum += out[kBlock - 1].key;
    }
    const int64_t t1 = NowNs();
    g_sink.fetch_add(checksum, std::memory_order_relaxed);
    return PerItemNs(t0, t1, kItems);
  });
}

/// Materializes global blocks [from, to) with their ticks.
std::vector<KeyedItem> Materialize(const Input& in, uint64_t from,
                                   uint64_t to) {
  std::vector<KeyedItem> items((to - from) * kBlock);
  for (uint64_t g = from; g < to; ++g) {
    in.Block(g, items.data() + (g - from) * kBlock);
  }
  return items;
}

void Feed(AggregateRegistry& registry, const std::vector<KeyedItem>& items) {
  for (size_t i = 0; i < items.size(); i += kBlock) {
    registry.UpdateBatch(std::span<const KeyedItem>(items.data() + i, kBlock));
  }
}

/// The backend alone: blocks pre-grouped into (tick, key) runs, each run
/// fed to its key's aggregate through DecayedAggregate::UpdateBatch.
class BackendReplay {
 public:
  BackendReplay(const Workload& w, Ops& ops)
      : decay_(w.decay),
        options_(EngineOptions(w).registry.aggregate),
        ops_(&ops) {}

  /// Groups `items` into runs, creating aggregates for new keys.
  void Group(const std::vector<KeyedItem>& items) {
    flat_.clear();
    runs_.clear();
    std::vector<uint32_t> order(kBlock);
    for (size_t b = 0; b < items.size(); b += kBlock) {
      for (uint32_t i = 0; i < kBlock; ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
        return items[b + x].key < items[b + y].key;
      });
      for (size_t i = 0; i < kBlock; ++i) {
        const KeyedItem& item = items[b + order[i]];
        if (i == 0 || item.key != items[b + order[i - 1]].key) {
          runs_.push_back(Run{Aggregate(item.key), flat_.size(), 0});
        }
        flat_.push_back(StreamItem{item.t, item.value});
        ++runs_.back().len;
      }
    }
  }

  /// Feeds the grouped runs; returns the elapsed nanoseconds.
  int64_t Apply() {
    const int64_t t0 = NowNs();
    for (const Run& r : runs_) {
      if (r.agg == nullptr) continue;
      r.agg->UpdateBatch(
          std::span<const StreamItem>(flat_.data() + r.offset, r.len));
    }
    return NowNs() - t0;
  }

  size_t runs() const { return runs_.size(); }

 private:
  struct Run {
    DecayedAggregate* agg;
    size_t offset;
    size_t len;
  };

  DecayedAggregate* Aggregate(uint64_t key) {
    std::unique_ptr<DecayedAggregate>& agg = aggs_[key];
    if (agg == nullptr) {
      auto made = MakeDecayedSum(decay_, options_);
      if (!ops_->Check(made.status(), "MakeDecayedSum")) return nullptr;
      agg = std::move(made).value();
    }
    return agg.get();
  }

  DecayPtr decay_;
  AggregateOptions options_;
  Ops* ops_;
  std::unordered_map<uint64_t, std::unique_ptr<DecayedAggregate>> aggs_;
  std::vector<StreamItem> flat_;
  std::vector<Run> runs_;
};

/// Registry, backend, codec and checkpoint-capture replays of one chunk
/// pass, after the same set-up blocks the engine received.
void RegistryReplays(const Workload& w, const Input& in, Ops& ops,
                     LayerReplays* out) {
  const AggregateRegistry::Options options = EngineOptions(w).registry;
  const std::vector<KeyedItem> setup = Materialize(in, 0, in.setup_blocks);
  const uint64_t pass_end = in.setup_blocks + in.chunk_blocks;
  const std::vector<KeyedItem> pass =
      Materialize(in, in.setup_blocks, pass_end);
  {
    BackendReplay backend(w, ops);
    backend.Group(setup);
    (void)backend.Apply();
    backend.Group(pass);
    const int64_t ns = backend.Apply();
    out->backend_ns_per_item = PerItemNs(0, ns, pass.size());
    out->items_per_run = static_cast<double>(pass.size()) /
                         static_cast<double>(backend.runs());
  }

  auto reg = AggregateRegistry::Create(w.decay, options);
  if (!ops.Check(reg.status(), "AggregateRegistry::Create")) return;
  Feed(*reg, setup);
  const int64_t t0 = NowNs();
  Feed(*reg, pass);
  out->registry_ns_per_item = PerItemNs(t0, NowNs(), pass.size());
  const size_t keys = std::max<size_t>(1, reg->KeyCount());
  out->storage_bits_per_key =
      static_cast<double>(reg->StorageBits()) / static_cast<double>(keys);

  std::string blob;
  out->encode_us_per_key = MedianOf3([&] {
    blob.clear();
    const int64_t a = NowNs();
    (void)ops.Check(reg->EncodeState(&blob), "EncodeState");
    return PerItemNs(a, NowNs(), keys) / 1e3;
  });
  out->decode_us_per_key = MedianOf3([&] {
    const int64_t a = NowNs();
    auto decoded = AggregateRegistry::Decode(w.decay, options, blob);
    const int64_t b = NowNs();
    (void)ops.Check(decoded.status(), "AggregateRegistry::Decode");
    return PerItemNs(a, b, keys) / 1e3;
  });

  // Checkpoint capture after 2^17 items (32 blocks) of churn.
  reg->EnableCheckpointTracking();
  AggregateRegistry::CheckpointDelta full;
  if (!ops.Check(reg->CaptureCheckpointDelta(0, &full),
                 "CaptureCheckpointDelta")) {
    return;
  }
  const uint64_t churn_blocks = std::min<uint64_t>(32, in.chunk_blocks);
  Feed(*reg, Materialize(in, pass_end, pass_end + churn_blocks));
  AggregateRegistry::CheckpointDelta delta;
  const int64_t c0 = NowNs();
  (void)ops.Check(reg->CaptureCheckpointDelta(full.epoch, &delta),
                  "CaptureCheckpointDelta");
  out->capture_delta_ms = Millis(c0, NowNs());
}

/// Slope of ShardSnapshot() latency against keys per shard, on idle
/// engines holding about 2^10, 2^12 and 2^14 keys per shard (8 items each).
double CloneSweep(const Workload& w, Ops& ops) {
  std::vector<double> xs, ys;
  for (const uint64_t per_shard : {1u << 10, 1u << 12, 1u << 14}) {
    auto engine = ShardedAggregateEngine::Create(w.decay, EngineOptions(w));
    if (!ops.Check(engine.status(), "ShardedAggregateEngine::Create")) {
      return 0.0;
    }
    {
      auto session = (*engine)->NewProducer({});
      if (!ops.Check(session.status(), "NewProducer")) return 0.0;
      std::vector<KeyedItem> batch(per_shard * kShards);
      for (Tick t = 1; t <= 8; ++t) {
        for (uint64_t k = 0; k < batch.size(); ++k) {
          batch[k] = KeyedItem{k, t, 1 + k % 4};
        }
        (void)ops.Check((*session)->AddBatch(batch), "AddBatch");
      }
      (void)ops.Check((*session)->Flush(), "ProducerSession::Flush");
    }
    (void)ops.Check((*engine)->Flush(), "Flush");
    std::vector<double> us;
    for (int i = 0; i < 5; ++i) {
      const int64_t a = NowNs();
      const auto snapshot = (*engine)->ShardSnapshot(0);
      us.push_back(Micros(a, NowNs()));
      if (snapshot == nullptr) ops.Fail("ShardSnapshot returned null");
    }
    xs.push_back(static_cast<double>((*engine)->Stats()[0].live_keys));
    ys.push_back(Quantile(us, 0.5));
  }
  // Least-squares slope of latency on keys.
  const double n = static_cast<double>(xs.size());
  double mx = 0, my = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i] / n;
    my += ys[i] / n;
  }
  double num = 0, den = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    num += (xs[i] - mx) * (ys[i] - my);
    den += (xs[i] - mx) * (xs[i] - mx);
  }
  return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- the run

class Bench {
 public:
  Bench(Workload w, uint64_t seed, double seconds, Trace* trace,
        std::string out_dir, std::string tag)
      : w_(std::move(w)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        out_dir_(std::move(out_dir)),
        tag_(std::move(tag)) {}

  /// Runs set-up, the timed phase and the checks; returns the metrics.
  std::vector<Metric> Run();

  Ops& ops() { return ops_; }

 private:
  void Ingest();
  void Reader();
  void Control();
  void Cycle(uint64_t c, int64_t due_ns);
  void CheckConservation();
  void CheckAnswers(const Oracle& oracle);
  std::vector<Metric> Report() const;
  std::string CkptDir(int rep) const {
    return out_dir_ + "/ckpt-" + tag_ + "-" + std::to_string(rep);
  }

  const Workload w_;
  const uint64_t seed_;
  const double seconds_;
  Trace* const trace_;
  const std::string out_dir_;
  const std::string tag_;

  Ops ops_;
  Input in_;
  System sys_;
  std::optional<ShardTargets> targets_;
  int64_t start_ns_ = 0;
  int64_t deadline_ns_ = 0;
  int64_t end_ns_ = 0;
  uint64_t blocks_end_ = 0;  ///< global blocks offered (set-up + timed)
  IngestSamples ingest_;
  std::vector<double> query_ms_;
  CycleSamples cycles_;
  double final_flush_us_ = 0.0;

  std::vector<double> setup_s_;
  ProcUsage usage0_;
  ProcUsage usage1_;
  uint64_t flush_stalls_ = 0;
  ShardTotals shards_;
  double rel_err_max_ = 0.0;
  double promote_ms_ = 0.0;
  LayerReplays replays_;
};

void Bench::Ingest() {
  const bool paced = w_.items_per_s > 0;
  const int64_t interval_ns =
      paced ? std::llround(kBlock / w_.items_per_s * 1e9) : 0;
  std::vector<KeyedItem> block(kBlock);
  LagTracker lag(*targets_);
  ShardedAggregateEngine& engine = *sys_.engine;
  uint64_t g = in_.setup_blocks;
  for (uint64_t i = 0;; ++i, ++g) {
    int64_t due = 0;
    if (paced) {
      due = start_ns_ + static_cast<int64_t>(i) * interval_ns;
      if (due >= deadline_ns_) break;
      for (int64_t now = NowNs(); now < due; now = NowNs()) {
        lag.Resolve(engine.Stats(), now, &ingest_.lag_ms);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min(kPollNs, due - now)));
      }
    } else if (NowNs() >= deadline_ns_) {
      break;
    }
    if (trace_ != nullptr && i % kTraceSlice == 0) {
      trace_->SetOn((i / kTraceSlice) % 4 == 0);
    }
    const bool traced = trace_ != nullptr && trace_->on();
    Status status;
    int64_t t0 = 0;
    int64_t t1 = 0;
    {
      ScopedSpan root(trace_, "gen.block", g, 0);
      in_.Block(g, block.data());
      ScopedSpan add(trace_, "session.add_batch", g, 0, &root);
      t0 = NowNs();
      status = sys_.session->AddBatch(block);
      t1 = NowNs();
    }
    (void)ops_.Check(status, "AddBatch");
    if (paced) {
      ingest_.late_ms.push_back(Millis(due, t0));
    } else {
      due = t0;
    }
    const double add_us = Micros(t0, t1);
    ingest_.add_batch_us.push_back(add_us);
    (traced ? ingest_.add_us_traced : ingest_.add_us_untraced) += add_us;
    ++(traced ? ingest_.blocks_traced : ingest_.blocks_untraced);
    lag.Add(g, due);
    const std::vector<ShardStats> stats = engine.Stats();
    lag.Resolve(stats, NowNs(), &ingest_.lag_ms);
    double depth = 0;
    for (const ShardStats& s : stats) {
      depth += static_cast<double>(s.queue_depth);
    }
    ingest_.queue_depth.push_back(depth);
  }
  blocks_end_ = g;
  if (trace_ != nullptr) trace_->SetOn(true);
  (void)ops_.Check(sys_.session->Flush(), "ProducerSession::Flush");
  {
    ScopedSpan flush(trace_, "writer.engine_flush", 0, 0);
    const int64_t f0 = NowNs();
    (void)ops_.Check(engine.Flush(), "Flush");
    end_ns_ = NowNs();
    final_flush_us_ = Micros(f0, end_ns_);
  }
  lag.Resolve(engine.Stats(), end_ns_, &ingest_.lag_ms);
}

void Bench::Reader() {
  Rng rng(HashCombine(seed_, 0x726561646572));
  const int64_t period_ns = std::llround(1e9 / w_.queries_per_s);
  for (uint64_t q = 0;; ++q) {
    const int64_t due = start_ns_ + static_cast<int64_t>(q) * period_ns;
    if (due >= deadline_ns_) break;
    SleepUntil(due);
    const uint64_t key = rng.NextBelow(w_.key_space);
    double value = 0.0;
    {
      ScopedSpan root(trace_, "reader.query", q, 1);
      ScopedSpan call(trace_, "snapshot.query_key", q, 1, &root);
      value = sys_.engine->QueryKey(key, 0);
    }
    query_ms_.push_back(Millis(due, NowNs()));
    ops_.Count();
    if (!(std::isfinite(value) && value >= 0.0)) {
      ops_.Fail("QueryKey returned " + std::to_string(value));
    }
  }
}

void Bench::Control() {
  const double period_ns =
      static_cast<double>(w_.cycle_items) / w_.items_per_s * 1e9;
  for (uint64_t c = 0;; ++c) {
    const int64_t due =
        start_ns_ + std::llround(static_cast<double>(c + 1) * period_ns);
    if (due >= deadline_ns_) break;
    SleepUntil(due);
    Cycle(c, due);
  }
}

/// One durability cycle: flush, incremental checkpoint commit, follower
/// catch-up, merged snapshot, top-k.
void Bench::Cycle(uint64_t c, int64_t due_ns) {
  CheckpointLog& log = *sys_.log;
  ScopedSpan root(trace_, "control.cycle", c, 1);
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(trace_, "writer.engine_flush", c, 1, &root);
    (void)ops_.Check(sys_.engine->Flush(), "Flush");
  }
  const int64_t t1 = NowNs();
  const uint64_t generation = log.manifest().generation;
  {
    ScopedSpan span(trace_, "ckptlog.write_incremental", c, 1, &root);
    (void)ops_.Check(log.WriteIncremental(), "WriteIncremental");
  }
  const int64_t t2 = NowNs();
  // A compacting commit publishes two manifest generations: the segments,
  // then the base that folds them.
  const bool compacting = log.manifest().generation >= generation + 2;
  {
    ScopedSpan span(trace_, "standby.apply_new", c, 1, &root);
    (void)ops_.Check(sys_.follower->ApplyNew(), "ApplyNew");
  }
  const int64_t t3 = NowNs();
  std::optional<MergedSnapshot> snapshot;
  {
    ScopedSpan span(trace_, "merged.snapshot", c, 1, &root);
    auto taken = sys_.engine->Snapshot();
    if (ops_.Check(taken.status(), "Snapshot")) {
      snapshot.emplace(std::move(taken).value());
    }
  }
  const int64_t t4 = NowNs();
  if (snapshot) {
    std::vector<MergedSnapshot::WeightedKey> top;
    {
      ScopedSpan span(trace_, "merged.topk", c, 1, &root);
      top = snapshot->TopK(kTopK, 0);
    }
    ops_.Count();
    for (size_t i = 1; i < top.size(); ++i) {
      if (top[i].weight > top[i - 1].weight) {
        ops_.Fail("TopK weights not descending");
        break;
      }
    }
  }
  const int64_t t5 = NowNs();

  cycles_.cycle_ms.push_back(Millis(due_ns, t5));
  cycles_.flush_us.push_back(Micros(t0, t1));
  cycles_.commit_ms.push_back(Millis(t1, t2));
  cycles_.apply_ms.push_back(Millis(t2, t3));
  cycles_.snapshot_ms.push_back(Millis(t3, t4));
  cycles_.topk_ms.push_back(Millis(t4, t5));
  if (compacting) {
    ++cycles_.compactions;
    cycles_.commit_compacting_ms.push_back(Millis(t1, t2));
    cycles_.apply_rebuild_ms.push_back(Millis(t2, t3));
  } else {
    cycles_.commit_plain_ms.push_back(Millis(t1, t2));
    cycles_.apply_incremental_ms.push_back(Millis(t2, t3));
    uint64_t bytes = 0;
    for (const CheckpointLog::ManifestEntry& e : log.manifest().entries) {
      if (e.gen_lo == log.manifest().generation) bytes += e.length;
    }
    cycles_.bytes_per_commit.push_back(static_cast<double>(bytes));
  }
  cycles_.live_bytes_max = std::max(cycles_.live_bytes_max, log.LiveBytes());
}

std::vector<Metric> Bench::Run() {
  in_ = MakeInput(w_, seed_);
  const Oracle oracle(w_, in_, seed_);

  // Set-up, several times; the last system is the one measured.
  for (int r = 0; r < kSetupReps; ++r) {
    sys_.Reset();
    if (r > 0) std::filesystem::remove_all(CkptDir(r - 1));
    std::filesystem::remove_all(CkptDir(r));
    const int64_t t0 = NowNs();
    if (!SetUp(w_, in_, CkptDir(r), ops_, &sys_)) return {};
    setup_s_.push_back(Millis(t0, NowNs()) / 1e3);
  }
  // A fixed sample capacity: the paced rate, or 30k blocks/s (about twice
  // the fastest closed-loop rate measured so far).
  const double blocks_per_s =
      w_.items_per_s > 0 ? w_.items_per_s / kBlock : 30000.0;
  ingest_.Reserve(static_cast<size_t>(blocks_per_s * seconds_) + 64);
  targets_.emplace(in_, *sys_.engine);
  const uint64_t stalls0 = sys_.engine->SessionTotals().flush_stalls;
  usage0_ = ReadUsage();

  // Timed phase: the generator runs on this thread, the reader or the
  // durability control loop (if any) on one more.
  start_ns_ = NowNs();
  deadline_ns_ = start_ns_ + static_cast<int64_t>(seconds_ * 1e9);
  std::thread helper;
  if (w_.queries_per_s > 0) {
    helper = std::thread([this] { Reader(); });
  } else if (w_.cycle_items > 0) {
    helper = std::thread([this] { Control(); });
  }
  Ingest();
  if (helper.joinable()) helper.join();
  usage1_ = ReadUsage();
  flush_stalls_ = sys_.engine->SessionTotals().flush_stalls - stalls0;
  CheckConservation();
  CheckAnswers(oracle);
  sys_.Reset();
  std::filesystem::remove_all(CkptDir(kSetupReps - 1));

  if (trace_ != nullptr) {
    trace_->SetOn(true);
    {
      ScopedSpan span(trace_, "ring.replay", 0, 0);
      replays_.ring_ns_per_item = RingReplay(in_);
    }
    {
      ScopedSpan span(trace_, "registry.replay", 0, 0);
      RegistryReplays(w_, in_, ops_, &replays_);
    }
    {
      ScopedSpan span(trace_, "snapshot.clone_sweep", 0, 0);
      replays_.clone_us_per_key = CloneSweep(w_, ops_);
    }
  }
  return Report();
}

/// Per-shard conservation after the timed phase: every offered item was
/// applied or counted as rejected. Also gathers the shard counters.
void Bench::CheckConservation() {
  const std::vector<ShardStats> stats = sys_.engine->Stats();
  for (uint32_t s = 0; s < stats.size(); ++s) {
    const ShardStats& st = stats[s];
    const uint64_t offered = targets_->Through(blocks_end_ - 1, s);
    ops_.Count();
    if (st.items_applied + st.items_rejected != offered) {
      ops_.Fail("shard " + std::to_string(s) + " applied " +
                std::to_string(st.items_applied) + " + rejected " +
                std::to_string(st.items_rejected) + " != offered " +
                std::to_string(offered));
    }
    const uint64_t before = targets_->Through(in_.setup_blocks - 1, s);
    const uint64_t timed =
        st.items_applied - std::min(before, st.items_applied);
    shards_.applied_timed += timed;
    shards_.busiest_timed = std::max(shards_.busiest_timed, timed);
    shards_.rejected += st.items_rejected;
    shards_.park_count += st.park_count;
    shards_.max_stall = std::max(shards_.max_stall, st.max_queue_stall);
    shards_.live_keys += st.live_keys;
    shards_.arena_extent += st.arena_extent;
  }
}

/// A final commit and follower catch-up, one merged snapshot checked
/// against the exact reference, then failover: the promoted engine must
/// answer exactly like the primary.
void Bench::CheckAnswers(const Oracle& oracle) {
  if (sys_.log) {
    (void)ops_.Check(sys_.log->WriteIncremental(), "WriteIncremental");
    (void)ops_.Check(sys_.follower->ApplyNew(), "ApplyNew");
  }
  auto snapshot = sys_.engine->Snapshot();
  if (!ops_.Check(snapshot.status(), "Snapshot")) return;
  rel_err_max_ = oracle.Check(*snapshot, in_, blocks_end_, w_.decay,
                              ErrorBound(w_.backend), ops_);
  if (!sys_.follower) return;
  const Tick cut = snapshot->cut();
  ScopedSpan span(trace_, "standby.promote", 0, 0);
  const int64_t p0 = NowNs();
  auto promoted = sys_.follower->Promote(EngineOptions(w_));
  promote_ms_ = Millis(p0, NowNs());
  if (!ops_.Check(promoted.status(), "Promote")) return;
  auto view = (*promoted)->Snapshot();
  if (!ops_.Check(view.status(), "Snapshot")) return;
  for (const uint64_t key : oracle.keys()) {
    ops_.Count();
    if (view->Query(key, cut) != snapshot->Query(key, cut)) {
      ops_.Fail("promoted engine differs from the primary at key " +
                std::to_string(key));
      return;
    }
  }
}

std::vector<Metric> Bench::Report() const {
  const double elapsed_s = Millis(start_ns_, end_ns_) / 1e3;
  // The request a user waits on: a point read, a durability cycle, or (on
  // the closed-loop workloads, where ingest is the only request) a block's
  // ingest-to-visible latency.
  const std::vector<double>& requests = w_.queries_per_s > 0 ? query_ms_
                                        : w_.cycle_items > 0 ? cycles_.cycle_ms
                                                             : ingest_.lag_ms;
  const auto mean = [](double sum, uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  const double add_traced =
      mean(ingest_.add_us_traced, ingest_.blocks_traced);
  const double add_untraced =
      mean(ingest_.add_us_untraced, ingest_.blocks_untraced);
  const double applied = static_cast<double>(shards_.applied_timed);
  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  const auto q = [](const std::vector<double>& v, double p) {
    return Quantile(v, p);
  };
  const CycleSamples& c = cycles_;
  const LayerReplays& r = replays_;
  return {
      // End to end.
      {"ingest_items_per_s", applied / elapsed_s, "items/s"},
      {"request_trimmed_mean_ms", TrimmedMean(requests, 0.1), "ms"},
      {"setup_s", q(setup_s_, 0.5), "s"},
      {"peak_rss_mb", usage1_.max_rss_mb, "MiB"},
      // Per layer.
      {"session.add_batch_us_p50", q(ingest_.add_batch_us, 0.5), "us"},
      {"session.add_batch_us_p99", q(ingest_.add_batch_us, 0.99), "us"},
      {"session.flush_stalls", count(flush_stalls_), "count"},
      {"session.items_rejected", count(shards_.rejected), "count"},
      {"ring.push_pop_ns_per_item", r.ring_ns_per_item, "ns"},
      {"ring.park_count", count(shards_.park_count), "count"},
      {"ring.max_queue_stall", count(shards_.max_stall), "count"},
      {"writer.queue_depth_p50", q(ingest_.queue_depth, 0.5), "items"},
      {"writer.queue_depth_p99", q(ingest_.queue_depth, 0.99), "items"},
      {"writer.busy_frac",
       r.registry_ns_per_item * count(shards_.busiest_timed) / 1e9 / elapsed_s,
       "ratio"},
      {"writer.engine_flush_us_p50",
       c.flush_us.empty() ? final_flush_us_ : q(c.flush_us, 0.5), "us"},
      {"registry.update_batch_ns_per_item", r.registry_ns_per_item, "ns"},
      {"registry.overhead_ns_per_item",
       r.registry_ns_per_item - r.backend_ns_per_item, "ns"},
      {"registry.items_per_run", r.items_per_run, "items"},
      {"registry.live_keys", count(shards_.live_keys), "count"},
      {"registry.arena_extent", count(shards_.arena_extent), "count"},
      {"registry.encode_us_per_key", r.encode_us_per_key, "us"},
      {"registry.decode_us_per_key", r.decode_us_per_key, "us"},
      {"registry.capture_delta_ms", r.capture_delta_ms, "ms"},
      {"backend.update_ns_per_item", r.backend_ns_per_item, "ns"},
      {"backend.storage_bits_per_key", r.storage_bits_per_key, "bits"},
      {"snapshot.clone_us_per_key", r.clone_us_per_key, "us"},
      {"snapshot.query_key_p50_ms", q(query_ms_, 0.5), "ms"},
      {"snapshot.query_key_p90_ms", q(query_ms_, 0.9), "ms"},
      {"snapshot.query_key_p99_ms", q(query_ms_, 0.99), "ms"},
      {"control.cycle_ms_p50", q(c.cycle_ms, 0.5), "ms"},
      {"control.cycle_ms_p90", q(c.cycle_ms, 0.9), "ms"},
      {"merged.snapshot_ms_p50", q(c.snapshot_ms, 0.5), "ms"},
      {"merged.snapshot_ms_p90", q(c.snapshot_ms, 0.9), "ms"},
      {"merged.topk_ms_p50", q(c.topk_ms, 0.5), "ms"},
      {"ckptlog.commit_ms_p50", q(c.commit_ms, 0.5), "ms"},
      {"ckptlog.commit_ms_p90", q(c.commit_ms, 0.9), "ms"},
      {"ckptlog.commit_plain_ms_p50", q(c.commit_plain_ms, 0.5), "ms"},
      {"ckptlog.commit_compacting_ms_p50", q(c.commit_compacting_ms, 0.5),
       "ms"},
      {"ckptlog.bytes_per_commit", q(c.bytes_per_commit, 0.5), "bytes"},
      {"ckptlog.compactions", count(c.compactions), "count"},
      {"ckptlog.live_bytes_max", count(c.live_bytes_max), "bytes"},
      {"standby.apply_ms_p50", q(c.apply_ms, 0.5), "ms"},
      {"standby.apply_ms_p90", q(c.apply_ms, 0.9), "ms"},
      {"standby.apply_incremental_ms_p50", q(c.apply_incremental_ms, 0.5),
       "ms"},
      {"standby.apply_rebuild_ms_p50", q(c.apply_rebuild_ms, 0.5), "ms"},
      {"standby.promote_ms", promote_ms_, "ms"},
      {"gen.late_p99_ms", q(ingest_.late_ms, 0.99), "ms"},
      {"gen.visible_lag_p50_ms", q(ingest_.lag_ms, 0.5), "ms"},
      {"gen.visible_lag_p90_ms", q(ingest_.lag_ms, 0.9), "ms"},
      {"gen.visible_lag_p99_ms", q(ingest_.lag_ms, 0.99), "ms"},
      {"proc.cpu_us_per_item",
       (usage1_.cpu_s - usage0_.cpu_s) * 1e6 / std::max(1.0, applied), "us"},
      {"proc.ctx_switches",
       count(usage1_.ctx_switches - usage0_.ctx_switches), "count"},
      {"oracle.rel_err_max", rel_err_max_, "ratio"},
      {"trace.overhead_pct",
       add_traced > 0 && add_untraced > 0
           ? (add_traced / add_untraced - 1) * 100
           : 0.0,
       "%"},
      {"trace.spans_dropped",
       trace_ != nullptr ? count(trace_->dropped()) : 0.0, "count"},
  };
}

// ------------------------------------------------------------------ output

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct LayerTotals {
  std::string name;
  uint64_t count = 0;
  double self_ms = 0.0;
  double total_ms = 0.0;
};

/// Per span name: count, self time (duration minus child spans) and total.
std::vector<LayerTotals> LayerTable(const Trace& trace) {
  std::vector<int64_t> child_ns(trace.size(), 0);
  for (size_t i = 0; i < trace.size(); ++i) {
    const Trace::Span& s = trace.at(i);
    if (s.parent < 0) continue;
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<LayerTotals> table;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Trace::Span& s = trace.at(i);
    auto row = std::find_if(table.begin(), table.end(), [&](const auto& t) {
      return t.name == s.name;
    });
    if (row == table.end()) {
      row = table.insert(table.end(), LayerTotals{s.name});
    }
    ++row->count;
    row->total_ms += Millis(s.start_ns, s.end_ns);
    row->self_ms += Millis(s.start_ns + child_ns[i], s.end_ns);
  }
  return table;
}

bool WriteChromeTrace(const Trace& trace, const std::string& path,
                      int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < trace.size(); ++i) {
    const Trace::Span& s = trace.at(i);
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %llu}}%s\n",
                 s.name, s.tid, Micros(origin_ns, s.start_ns),
                 Micros(s.start_ns, s.end_ns), i, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < trace.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// What one run was asked to do, as recorded in its result file.
struct RunInfo {
  Workload workload;
  uint64_t seed = 0;
  int rep = 0;
  double seconds = 0.0;
  double scale = 1.0;
  std::string commit;
  bool traced = false;
};

/// The result file: provenance, workload parameters, the correctness
/// verdict, every metric, and (traced runs) the per-layer span totals.
bool WriteResult(const std::string& path, const RunInfo& info, const Ops& ops,
                 const std::vector<Metric>& metrics,
                 const std::vector<LayerTotals>& layers, bool correct) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Workload& w = info.workload;
  const auto u64 = [](uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::fprintf(f, "{\n  \"bench\": \"engine_bench\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               w.name.c_str(), u64(info.seed));
  std::fprintf(f, "  \"rep\": %d,\n  \"traced\": %s,\n", info.rep,
               info.traced ? "true" : "false");
  std::fprintf(f,
               "  \"provenance\": {\"commit\": \"%s\", \"nproc\": %u, "
               "\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"cxx_flags\": \"%s\", \"date\": \"%s\"},\n",
               JsonEscape(info.commit).c_str(),
               std::thread::hardware_concurrency(),
               JsonEscape(__VERSION__).c_str(),
               JsonEscape(EB_BUILD_TYPE).c_str(),
               JsonEscape(EB_CXX_FLAGS).c_str(), UtcNow().c_str());
  std::fprintf(f,
               "  \"params\": {\"backend\": \"%s\", \"decay\": \"%s\", "
               "\"shards\": %u, \"epsilon\": %g, \"block_items\": %zu, "
               "\"key_space\": %llu, \"chunk_items\": %zu, "
               "\"items_per_s\": %g, \"queries_per_s\": %g, "
               "\"cycle_items\": %zu, \"seconds\": %g, \"scale\": %g},\n",
               w.backend == Backend::kWbmh ? "WBMH" : "CEH",
               w.decay_label.c_str(), kShards, kEpsilon, kBlock,
               u64(w.key_space), w.chunk_items, w.items_per_s,
               w.queries_per_s, w.cycle_items, info.seconds, info.scale);
  std::fprintf(f,
               "  \"correct\": %s,\n  \"attempted\": %llu,\n"
               "  \"failed\": %llu,\n  \"violations\": [",
               correct ? "true" : "false", u64(ops.attempted()),
               u64(ops.failed()));
  const std::vector<std::string> messages = ops.messages();
  for (size_t i = 0; i < messages.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 JsonEscape(messages[i]).c_str());
  }
  std::fprintf(f, "],\n  \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? "," : "", m.name.c_str(),
                 std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::fprintf(f, "\n  },\n  \"layers\": {");
  for (size_t i = 0; i < layers.size(); ++i) {
    const LayerTotals& t = layers[i];
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"self_ms\": %.6f, "
                 "\"total_ms\": %.6f}",
                 i ? "," : "", t.name.c_str(), u64(t.count), t.self_ms,
                 t.total_ms);
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=hot_burst|cold_keys|point_reads|"
               "durable_state --seed=N [--seconds=S] [--scale=F] "
               "[--trace=FILE] [--out-dir=DIR] [--rep=I] [--commit=SHA]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  const int64_t origin_ns = NowNs();
  std::string workload_name;
  std::optional<uint64_t> seed;
  RunInfo info;
  info.seconds = 20.0;
  info.commit = "unknown";
  std::string trace_path;
  std::string out_dir = "results";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Usage(argv[0]);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        workload_name = value;
      } else if (key == "seed") {
        seed = std::stoull(value);
      } else if (key == "seconds") {
        info.seconds = std::stod(value);
      } else if (key == "scale") {
        info.scale = std::stod(value);
      } else if (key == "trace") {
        trace_path = value;
      } else if (key == "out-dir") {
        out_dir = value;
      } else if (key == "rep") {
        info.rep = std::stoi(value);
      } else if (key == "commit") {
        info.commit = value;
      } else {
        return Usage(argv[0]);
      }
    } catch (const std::exception&) {
      return Usage(argv[0]);
    }
  }
  const std::optional<Workload> workload =
      MakeWorkload(workload_name, info.scale);
  if (!workload || !seed || !(info.seconds > 0) ||
      !(info.scale > 0 && info.scale <= 1)) {
    return Usage(argv[0]);
  }
  info.workload = *workload;
  info.seed = *seed;
  info.traced = !trace_path.empty();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::unique_ptr<Trace> trace;
  if (info.traced) trace = std::make_unique<Trace>(kTraceCapacity);
  const std::string tag = workload->name + "-seed" + std::to_string(*seed) +
                          "-rep" + std::to_string(info.rep) +
                          (info.traced ? "-trace" : "");
  Bench bench(*workload, *seed, info.seconds, trace.get(), out_dir, tag);
  const std::vector<Metric> metrics = bench.Run();
  const Ops& ops = bench.ops();
  const bool correct = ops.failed() == 0 && !metrics.empty();

  std::vector<LayerTotals> layers;
  if (trace != nullptr) {
    layers = LayerTable(*trace);
    if (!WriteChromeTrace(*trace, trace_path, origin_ns)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  const char* name = workload->name.c_str();
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const LayerTotals& t : layers) {
    std::printf("%s layer %s count=%llu self_ms=%.3f total_ms=%.3f\n", name,
                t.name.c_str(), static_cast<unsigned long long>(t.count),
                t.self_ms, t.total_ms);
  }
  for (const std::string& msg : ops.messages()) {
    std::printf("%s VIOLATION %s\n", name, msg.c_str());
  }
  std::printf("%s %s attempted=%llu failed=%llu\n", name,
              correct ? "CORRECT" : "INCORRECT",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()));

  const std::string result_path = out_dir + "/" + tag + ".json";
  if (!WriteResult(result_path, info, ops, metrics, layers, correct)) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tds

int main(int argc, char** argv) { return tds::Main(argc, argv); }
