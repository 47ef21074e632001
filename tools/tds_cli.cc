// tds_cli — maintain time-decaying aggregates over a text stream.
//
// Reads "tick value" pairs (one per line; '#' comments and blank lines
// ignored; ticks non-decreasing) from a file or stdin and maintains a
// decayed sum with the configured decay function and backend. Prints the
// estimate at every probe interval and a final summary. Snapshots can be
// written/loaded so a stream can be processed across invocations.
//
// With --engine=SHARDS the input is "tick key value" triples instead: they
// are fed through the sharded multi-stream engine (batch ingest, periodic
// skew-triggered rebalancing), and the final report is an engine-wide
// merged snapshot — cut tick, per-shard occupancy, and the top keys by
// decayed weight.
//
// Examples:
//   tds_cli --decay=poly:1.5 --epsilon=0.1 < stream.txt
//   tds_cli --decay=exp:0.01 --backend=ewma --probe=1000 stream.txt
//   tds_cli --decay=sliwin:4096 --save=state.tds stream_part1.txt
//   tds_cli --decay=sliwin:4096 --load=state.tds stream_part2.txt
//   tds_cli --decay=polyexp:2:0.05 --backend=polyexp stream.txt
//   tds_cli --decay=sliwin:4096 --engine=4 --topk=20 keyed_stream.txt
#include <algorithm>
#include <charconv>
#include <iterator>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "core/snapshot.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/producer_session.h"
#include "engine/merged_snapshot.h"
#include "engine/standby.h"

namespace {

using namespace tds;

void Usage() {
  std::fprintf(
      stderr,
      "usage: tds_cli [options] [input-file]\n"
      "  --decay=KIND:PARAM   exp:<lambda> | poly:<alpha> | sliwin:<W> |\n"
      "                       polyexp:<k>:<lambda> (default poly:1.0)\n"
      "  --backend=NAME       auto|exact|ewma|recent|ceh|coarse|wbmh|polyexp\n"
      "  --epsilon=E          accuracy target (default 0.1)\n"
      "  --probe=P            print the estimate every P ticks (default 0:\n"
      "                       only the final estimate)\n"
      "  --save=FILE          write a snapshot after the stream ends\n"
      "  --load=FILE          resume from a snapshot before reading\n"
      "  --engine=SHARDS      sharded engine mode (1 to 256 shards): input\n"
      "                       lines become \"tick key value\" triples; prints\n"
      "                       a merged snapshot report (incompatible\n"
      "                       with --probe/--save/--load)\n"
      "  --topk=K             keys to print in the engine report\n"
      "                       (default 10)\n"
      "  --checkpoint-dir=DIR (engine mode) crash-consistent checkpoint\n"
      "                       log: resume from DIR's committed manifest if\n"
      "                       one exists (decay/backend/epsilon must match\n"
      "                       the checkpointed run), then commit one\n"
      "                       incremental segment generation after the\n"
      "                       stream ends (only keys dirtied this run are\n"
      "                       written)\n"
      "  --promote-from=DIR   (engine mode) warm-standby failover: catch a\n"
      "                       follower up on DIR's checkpoint log, promote\n"
      "                       it, and continue ingesting on the promoted\n"
      "                       engine\n");
}

/// `text` whole as a number in [low, high]; nullopt for anything else
/// (trailing characters, overflow, NaN).
template <typename T>
std::optional<T> ParseNumber(std::string_view text, T low, T high) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !(value >= low && value <= high)) {
    return std::nullopt;
  }
  return value;
}

constexpr double kMaxDouble = std::numeric_limits<double>::max();

/// Reads an input line's leading whitespace-separated fields into `out...`,
/// each whole and in its type's range (so a negative count is malformed);
/// later fields are ignored.
template <typename... T>
bool ReadFields(const std::string& line, T*... out) {
  std::istringstream fields(line);
  std::string token;
  const auto read = [&]<typename U>(U* field) {
    if (!(fields >> token)) return false;
    const std::optional<U> parsed = ParseNumber<U>(
        token, std::numeric_limits<U>::lowest(), std::numeric_limits<U>::max());
    if (parsed) *field = *parsed;
    return parsed.has_value();
  };
  return (read(out) && ...);
}

StatusOr<DecayPtr> ParseDecay(const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("decay spec needs KIND:PARAM");
  }
  const std::string kind = spec.substr(0, colon);
  const std::string_view param = std::string_view(spec).substr(colon + 1);
  const auto bad_param = [&spec] {
    return Status::InvalidArgument("bad decay parameter: " + spec);
  };
  if (kind == "sliwin") {
    const auto window =
        ParseNumber<Tick>(param, 1, std::numeric_limits<Tick>::max());
    if (!window) return bad_param();
    return SlidingWindowDecay::Create(*window);
  }
  if (kind == "polyexp") {
    const size_t split = param.find(':');
    if (split == std::string_view::npos) return bad_param();
    const auto k = ParseNumber<int>(param.substr(0, split), 0,
                                    std::numeric_limits<int>::max());
    const auto lambda =
        ParseNumber<double>(param.substr(split + 1), -kMaxDouble, kMaxDouble);
    if (!k || !lambda) return bad_param();
    return PolyExponentialDecay::Create(*k, *lambda);
  }
  if (kind == "exp" || kind == "poly") {
    const auto value = ParseNumber<double>(param, -kMaxDouble, kMaxDouble);
    if (!value) return bad_param();
    return kind == "exp" ? ExponentialDecay::Create(*value)
                         : PolynomialDecay::Create(*value);
  }
  return Status::InvalidArgument("unknown decay kind: " + kind);
}

/// The --backend names.
constexpr std::pair<std::string_view, Backend> kBackendNames[] = {
    {"auto", Backend::kAuto},         {"exact", Backend::kExact},
    {"ewma", Backend::kEwma},         {"recent", Backend::kRecentItems},
    {"ceh", Backend::kCeh},           {"coarse", Backend::kCoarseCeh},
    {"wbmh", Backend::kWbmh},         {"polyexp", Backend::kPolyExp},
};

/// Sharded engine mode: "tick key value" triples -> batch ingest with
/// periodic skew checks -> merged-snapshot report.
int RunEngineMode(DecayPtr decay, const AggregateOptions& aggregate,
                  uint32_t shards, size_t topk,
                  const std::string& checkpoint_dir,
                  const std::string& promote_dir, std::istream& in) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = aggregate;
  options.shards = shards;
  StatusOr<std::unique_ptr<ShardedAggregateEngine>> engine =
      Status::FailedPrecondition("engine not created");
  if (!promote_dir.empty()) {
    // Failover path: catch a standby up on the checkpoint log and promote
    // it; the promoted engine then ingests the rest of the stream.
    auto follower = StandbyFollower::Create(decay, options.registry,
                                            promote_dir);
    if (!follower.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   follower.status().ToString().c_str());
      return 1;
    }
    const Status applied = follower->ApplyNew();
    if (!applied.ok()) {
      std::fprintf(stderr, "error: %s\n", applied.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "# standby caught up to generation %llu of %s\n",
                 static_cast<unsigned long long>(
                     follower->applied_generation()),
                 promote_dir.c_str());
    engine = std::move(follower).value().Promote(options);
    if (engine.ok()) {
      std::fprintf(stderr, "# promoted standby -> primary\n");
    }
  } else {
    engine = ShardedAggregateEngine::Create(decay, options);
  }
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<CheckpointLog> ckpt_log;
  if (!checkpoint_dir.empty()) {
    // Resume from the directory's committed manifest if one exists
    // (promote mode already holds that state), track dirtied keys through
    // the run, and commit one segment generation at the end. The resume
    // test is the one CheckpointLog::Create uses, so a log that Create
    // would append to is always restored first.
    if (promote_dir.empty() && HasCheckpointLog(checkpoint_dir)) {
      const Status restored = RestoreFromCheckpointLog(**engine,
                                                       checkpoint_dir);
      if (!restored.ok()) {
        std::fprintf(stderr, "error: %s\n", restored.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "# resumed from checkpoint log %s\n",
                   checkpoint_dir.c_str());
    }
    const Status tracking = (*engine)->EnableCheckpointTracking();
    if (!tracking.ok()) {
      std::fprintf(stderr, "error: %s\n", tracking.ToString().c_str());
      return 1;
    }
    auto opened = CheckpointLog::Create(**engine, checkpoint_dir, {});
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    ckpt_log = std::make_unique<CheckpointLog>(std::move(opened).value());
  }

  constexpr size_t kBatch = 4096;
  ProducerSessionOptions session_options;
  session_options.staging_capacity = kBatch;
  auto producer = (*engine)->NewProducer(session_options);
  if (!producer.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 producer.status().ToString().c_str());
    return 1;
  }
  std::vector<KeyedItem> batch;
  batch.reserve(kBatch);
  std::string line;
  Tick last_tick = 0;
  uint64_t items = 0;
  size_t line_number = 0;
  const auto flush_batch = [&] {
    if (batch.empty()) return true;
    Status ingested = (*producer)->AddBatch(batch);
    if (ingested.ok()) ingested = (*producer)->Flush();
    if (!ingested.ok()) {
      std::fprintf(stderr, "error: %s\n", ingested.ToString().c_str());
      return false;
    }
    batch.clear();
    // Between batches is the natural rebalance point: the check is a pair
    // of atomic stat reads unless the skew trigger actually fires.
    auto rebalanced = (*engine)->RebalanceIfSkewed();
    if (!rebalanced.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   rebalanced.status().ToString().c_str());
      return false;
    }
    return true;
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    long long tick = 0;
    unsigned long long key = 0;
    unsigned long long value = 0;
    if (!ReadFields(line, &tick, &key, &value)) {
      std::fprintf(stderr, "warning: malformed line %zu skipped\n",
                   line_number);
      continue;
    }
    if (tick < last_tick) {
      std::fprintf(stderr,
                   "error: ticks must be non-decreasing (line %zu: %lld)\n",
                   line_number, tick);
      return 1;
    }
    batch.push_back(KeyedItem{key, tick, value});
    last_tick = tick;
    ++items;
    if (batch.size() >= kBatch && !flush_batch()) return 1;
  }
  if (!flush_batch()) return 1;
  const Status flushed = (*engine)->Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "error: %s\n", flushed.ToString().c_str());
    return 1;
  }
  if (ckpt_log) {
    const Status committed = ckpt_log->WriteIncremental();
    if (!committed.ok()) {
      std::fprintf(stderr, "error: %s\n", committed.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "# checkpoint log %s: generation %llu, %llu live bytes\n",
                 checkpoint_dir.c_str(),
                 static_cast<unsigned long long>(
                     ckpt_log->manifest().generation),
                 static_cast<unsigned long long>(ckpt_log->LiveBytes()));
  }

  auto merged = (*engine)->Snapshot();
  if (!merged.ok()) {
    std::fprintf(stderr, "error: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  std::printf("# engine: %u shards, %llu items, %zu keys, cut tick %lld, "
              "%llu rebalances\n",
              (*engine)->shards(), static_cast<unsigned long long>(items),
              merged->KeyCount(), static_cast<long long>(merged->cut()),
              static_cast<unsigned long long>((*engine)->Rebalances()));
  const auto stats = (*engine)->Stats();
  for (size_t s = 0; s < stats.size(); ++s) {
    std::printf("# shard %zu: %llu keys, %llu applied\n", s,
                static_cast<unsigned long long>(stats[s].live_keys),
                static_cast<unsigned long long>(stats[s].items_applied));
  }
  for (const auto& [key, weight] : merged->TopK(topk, merged->cut())) {
    std::printf("%llu\t%.6f\n", static_cast<unsigned long long>(key), weight);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string decay_spec = "poly:1.0";
  std::string backend_name = "auto";
  std::string save_path, load_path, input_path;
  std::string checkpoint_dir, promote_dir;
  double epsilon = 0.1;
  Tick probe = 0;
  uint32_t engine_shards = 0;  // 0: single-stream mode
  size_t topk = 10;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    // Reads a numeric option's value whole into `out` if it lies in
    // [low, high]; false (after the error) otherwise.
    auto number = [&arg]<typename T>(const char* v, T low, T high, T* out) {
      const std::optional<T> parsed = ParseNumber<T>(v, low, high);
      if (!parsed) {
        std::fprintf(stderr, "error: bad number or out of range: %s\n",
                     arg.c_str());
        return false;
      }
      *out = *parsed;
      return true;
    };
    if (const char* v = value_of("--decay=")) {
      decay_spec = v;
    } else if (const char* v = value_of("--backend=")) {
      backend_name = v;
    } else if (const char* v = value_of("--epsilon=")) {
      if (!number(v, -kMaxDouble, kMaxDouble, &epsilon)) return 2;
    } else if (const char* v = value_of("--probe=")) {
      if (!number(v, Tick{0}, std::numeric_limits<Tick>::max(), &probe)) {
        return 2;
      }
    } else if (const char* v = value_of("--save=")) {
      save_path = v;
    } else if (const char* v = value_of("--load=")) {
      load_path = v;
    } else if (const char* v = value_of("--engine=")) {
      // The route table's slices bound the shard count.
      if (!number(v, uint32_t{1},
                  ShardedAggregateEngine::Options{}.route_slices,
                  &engine_shards)) {
        return 2;
      }
    } else if (const char* v = value_of("--topk=")) {
      if (!number(v, size_t{0}, std::numeric_limits<size_t>::max(), &topk)) {
        return 2;
      }
    } else if (const char* v = value_of("--checkpoint-dir=")) {
      checkpoint_dir = v;
    } else if (const char* v = value_of("--promote-from=")) {
      promote_dir = v;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      input_path = arg;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  auto decay = ParseDecay(decay_spec);
  if (!decay.ok()) {
    std::fprintf(stderr, "error: %s\n", decay.status().ToString().c_str());
    return 2;
  }
  const auto named = std::find_if(
      std::begin(kBackendNames), std::end(kBackendNames),
      [&](const auto& entry) { return entry.first == backend_name; });
  if (named == std::end(kBackendNames)) {
    std::fprintf(stderr, "error: unknown backend: %s\n", backend_name.c_str());
    return 2;
  }
  const auto options = AggregateOptions::Builder()
                           .backend(named->second)
                           .epsilon(epsilon)
                           .Build();
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().ToString().c_str());
    return 2;
  }

  if (engine_shards != 0) {
    if (probe != 0 || !save_path.empty() || !load_path.empty()) {
      std::fprintf(stderr,
                   "error: --engine is incompatible with "
                   "--probe/--save/--load\n");
      return 2;
    }
    std::ifstream engine_file;
    std::istream* engine_in = &std::cin;
    if (!input_path.empty()) {
      engine_file.open(input_path);
      if (!engine_file) {
        std::fprintf(stderr, "error: cannot open %s\n", input_path.c_str());
        return 1;
      }
      engine_in = &engine_file;
    }
    return RunEngineMode(std::move(decay).value(), *options, engine_shards,
                         topk, checkpoint_dir, promote_dir, *engine_in);
  }
  if (!checkpoint_dir.empty() || !promote_dir.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-dir/--promote-from require --engine "
                 "mode\n");
    return 2;
  }

  std::unique_ptr<DecayedAggregate> sum;
  if (!load_path.empty()) {
    std::ifstream in(load_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", load_path.c_str());
      return 1;
    }
    std::ostringstream blob;
    blob << in.rdbuf();
    auto restored = DecodeDecayedSum(decay.value(), blob.str());
    if (!restored.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   restored.status().ToString().c_str());
      return 1;
    }
    sum = std::move(restored).value();
  } else {
    auto created = MakeDecayedSum(decay.value(), *options);
    if (!created.ok()) {
      std::fprintf(stderr, "error: %s\n", created.status().ToString().c_str());
      return 1;
    }
    sum = std::move(created).value();
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!input_path.empty()) {
    file.open(input_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n", input_path.c_str());
      return 1;
    }
    in = &file;
  }

  std::string line;
  Tick last_tick = 0;
  Tick next_probe = probe;
  uint64_t items = 0;
  size_t line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    long long tick = 0;
    unsigned long long value = 0;
    if (!ReadFields(line, &tick, &value)) {
      std::fprintf(stderr, "warning: malformed line %zu skipped\n",
                   line_number);
      continue;
    }
    if (tick < last_tick) {
      std::fprintf(stderr,
                   "error: ticks must be non-decreasing (line %zu: %lld)\n",
                   line_number, tick);
      return 1;
    }
    while (probe > 0 && next_probe < tick) {
      std::printf("%lld\t%.6f\t%zu\n", static_cast<long long>(next_probe),
                  sum->Query(next_probe), sum->StorageBits());
      next_probe += probe;
    }
    sum->Update(tick, value);
    last_tick = tick;
    items += value;
  }

  std::printf("# %s over %s: %llu items through tick %lld\n",
              sum->Name().c_str(), sum->decay()->Name().c_str(),
              static_cast<unsigned long long>(items),
              static_cast<long long>(last_tick));
  if (last_tick > 0) {
    std::printf("%lld\t%.6f\t%zu\n", static_cast<long long>(last_tick),
                sum->Query(last_tick), sum->StorageBits());
  }

  if (!save_path.empty()) {
    std::string blob;
    const Status status = EncodeDecayedSum(*sum, &blob);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::ofstream out(save_path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", save_path.c_str());
      return 1;
    }
    std::printf("# snapshot (%zu bytes) -> %s\n", blob.size(),
                save_path.c_str());
  }
  return 0;
}
