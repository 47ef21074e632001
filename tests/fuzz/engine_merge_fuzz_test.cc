// Dual-mode fuzz driver for the cross-shard merge/rebalance machinery
// (docs/CORRECTNESS.md conventions): byte-stream-driven interleavings of
// routed ingest batches, slice migrations (ExtractIf -> MergeFrom + route
// flips), merged-snapshot assembly through the shard-blob decode path, and
// merged-snapshot codec round-trips — single-threaded, modelling exactly
// what the engine's writer threads do, so every sequence is replayable
// from its input bytes. After every operation: AuditInvariants() on every
// shard registry, and after every snapshot op a byte-for-byte comparison
// of the merged registry blob against a serially-fed reference (expiry is
// disabled, so bookkeeping never becomes arithmetic).
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/engine.h"
#include "engine/merged_snapshot.h"
#include "engine/registry.h"
#include "fuzz_util.h"
#include "util/common.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr uint32_t kShards = 3;
constexpr uint32_t kSlices = 24;
constexpr uint64_t kKeySpace = 60;

AggregateRegistry::Options MergeFuzzOptions(Backend backend) {
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(backend)
                          .epsilon(0.15)
                          .Build()
                          .value();
  options.expiry_weight_floor = -1.0;  // byte-equality oracle: no eviction
  return options;
}

std::string MustEncode(AggregateRegistry& registry, const FuzzInput& in) {
  std::string blob;
  TDS_FUZZ_CHECK_OK(registry.EncodeState(&blob), in, "EncodeState");
  return blob;
}

struct MergeFuzzCoverage {
  uint64_t migrations = 0;
  uint64_t snapshots = 0;
};

MergeFuzzCoverage RunEngineMergeFuzz(const DecayPtr& decay, Backend backend,
                                     int max_ops, FuzzInput& in) {
  const auto options = MergeFuzzOptions(backend);

  // The model: per-shard registries + a slice->shard route table —
  // the single-threaded skeleton of ShardedAggregateEngine.
  std::vector<AggregateRegistry> shards;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto registry = AggregateRegistry::Create(decay, options);
    TDS_FUZZ_CHECK(registry.ok(), in, registry.status().ToString());
    shards.push_back(std::move(registry).value());
  }
  std::vector<uint32_t> route(kSlices);
  for (uint32_t s = 0; s < kSlices; ++s) route[s] = s % kShards;
  auto reference = AggregateRegistry::Create(decay, options);
  TDS_FUZZ_CHECK(reference.ok(), in, reference.status().ToString());

  const auto audit_all = [&](int op) {
    for (uint32_t s = 0; s < kShards; ++s) {
      TDS_FUZZ_CHECK_OK(shards[s].AuditInvariants(), in,
                        "shard ", s, " op=", op);
    }
    TDS_FUZZ_CHECK_OK(reference->AuditInvariants(), in, "reference");
  };

  Tick t = 1;
  MergeFuzzCoverage coverage;
  for (int op = 0; op < max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(10);
    if (kind < 6) {
      // Routed ingest batch, globally tick-ordered (the rebalance
      // precondition), per-shard via the batch path.
      const size_t size = 1 + in.Below(60);
      std::vector<std::vector<KeyedItem>> per_shard(kShards);
      for (size_t i = 0; i < size; ++i) {
        if (in.Below(4) == 0) t += in.Below(4);
        const uint64_t key = in.Below(kKeySpace);
        const uint64_t value = in.Below(6);
        const uint32_t slice =
            ShardedAggregateEngine::SliceForKey(key, kSlices);
        per_shard[route[slice]].push_back(KeyedItem{key, t, value});
        reference->Update(key, t, value);
      }
      for (uint32_t s = 0; s < kShards; ++s) {
        if (!per_shard[s].empty()) shards[s].UpdateBatch(per_shard[s]);
      }
    } else if (kind < 8) {
      // Migration: move a random run of slices to a random shard, the
      // same ExtractIf -> MergeFrom protocol the engine runs on its
      // writer threads.
      const uint32_t to = static_cast<uint32_t>(in.Below(kShards));
      const uint32_t first = static_cast<uint32_t>(in.Below(kSlices));
      const uint32_t count = 1 + static_cast<uint32_t>(in.Below(6));
      std::vector<uint8_t> member(kSlices, 0);
      std::vector<uint8_t> donor(kShards, 0);
      for (uint32_t i = 0; i < count; ++i) {
        const uint32_t slice = (first + i) % kSlices;
        if (route[slice] == to) continue;
        member[slice] = 1;
        donor[route[slice]] = 1;
        route[slice] = to;
      }
      for (uint32_t from = 0; from < kShards; ++from) {
        if (!donor[from]) continue;
        auto extracted = shards[from].ExtractIf([&](uint64_t key) {
          return member[ShardedAggregateEngine::SliceForKey(
                     key, kSlices)] != 0;
        });
        TDS_FUZZ_CHECK(extracted.ok(), in,
                       "ExtractIf: ", extracted.status().ToString());
        TDS_FUZZ_CHECK_OK(
            shards[to].MergeFrom(std::move(extracted).value()), in,
            "MergeFrom");
        ++coverage.migrations;
      }
    } else if (kind == 8) {
      // Merged snapshot through the shard-blob decode path (each blob
      // passes the registry codec's audit-on-decode), byte-compared to the
      // reference.
      std::vector<AggregateRegistry> decoded;
      for (uint32_t s = 0; s < kShards; ++s) {
        auto shard = AggregateRegistry::Decode(decay, options,
                                               MustEncode(shards[s], in));
        TDS_FUZZ_CHECK(shard.ok(), in, "Decode: ", shard.status().ToString());
        decoded.push_back(std::move(shard).value());
      }
      auto merged = MergedSnapshot::FromShards(std::move(decoded));
      TDS_FUZZ_CHECK(merged.ok(), in,
                     "FromShards: ", merged.status().ToString());
      TDS_FUZZ_CHECK(merged->KeyCount() == reference->KeyCount(), in,
                     "KeyCount mismatch op=", op);
      std::string merged_blob;
      TDS_FUZZ_CHECK_OK(merged->EncodeRegistryState(&merged_blob), in,
                        "EncodeRegistryState");
      TDS_FUZZ_CHECK(merged_blob == MustEncode(*reference, in), in,
                     "merged blob diverged from serial reference, op=", op);
      ++coverage.snapshots;
    } else {
      // Merged registry codec round-trip: decode then re-encode must be
      // byte-identical, and the decode re-audits every key.
      std::vector<AggregateRegistry> copies;
      for (uint32_t s = 0; s < kShards; ++s) {
        auto copy = AggregateRegistry::Decode(decay, options,
                                              MustEncode(shards[s], in));
        TDS_FUZZ_CHECK(copy.ok(), in, "Decode: ", copy.status().ToString());
        copies.push_back(std::move(copy).value());
      }
      auto merged = MergedSnapshot::FromShards(std::move(copies));
      TDS_FUZZ_CHECK(merged.ok(), in,
                     "FromShards: ", merged.status().ToString());
      std::string blob;
      TDS_FUZZ_CHECK_OK(merged->EncodeRegistryState(&blob), in,
                        "EncodeRegistryState");
      auto decoded = AggregateRegistry::Decode(decay, options, blob);
      TDS_FUZZ_CHECK(decoded.ok(), in,
                     "Decode: ", decoded.status().ToString());
      TDS_FUZZ_CHECK(MustEncode(*decoded, in) == blob, in,
                     "merged registry not self-inverse, op=", op);
      TDS_FUZZ_CHECK(decoded->now() == merged->cut(), in, "cut mismatch");
    }
    audit_all(op);
  }
  // Final differential: fold the real registries and compare.
  auto merged = MergedSnapshot::FromShards(std::move(shards));
  TDS_FUZZ_CHECK(merged.ok(), in,
                 "final FromShards: ", merged.status().ToString());
  std::string merged_blob;
  TDS_FUZZ_CHECK_OK(merged->EncodeRegistryState(&merged_blob), in, "final");
  TDS_FUZZ_CHECK(merged_blob == MustEncode(*reference, in), in,
                 "final merged blob diverged from serial reference");
  return coverage;
}

}  // namespace
}  // namespace tds

#ifndef TDS_LIBFUZZER

#include <gtest/gtest.h>

namespace tds {
namespace {

TEST(EngineMergeFuzzTest, ShardedMergeMatchesSerialUnderFuzzedInterleavings) {
  struct Config {
    const char* label;
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {"EH", SlidingWindowDecay::Create(96).value(), Backend::kCeh},
      {"CEH", PolynomialDecay::Create(1.0).value(), Backend::kCeh},
      {"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
  };
  for (const Config& config : configs) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << config.label << " seed=" << seed);
      FuzzInput in = FuzzInput::FromSeed(
          seed * 6151 + static_cast<uint64_t>(config.backend), 160 * 96);
      const MergeFuzzCoverage coverage =
          RunEngineMergeFuzz(config.decay, config.backend, 160, in);
      // Every run must actually exercise the machinery under test.
      EXPECT_GT(coverage.migrations, 0u);
      EXPECT_GT(coverage.snapshots, 0u);
    }
  }
}

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point: the first byte picks the (decay, backend)
// pairing, the rest drive the op stream. (Migration/snapshot counts are
// coverage bookkeeping for the deterministic wrapper, not an invariant
// arbitrary byte streams could promise.)
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tds::FuzzInput in(data, size);
  constexpr int kMaxOps = 512;
  switch (in.Below(3)) {
    case 0:
      (void)tds::RunEngineMergeFuzz(
          tds::SlidingWindowDecay::Create(96).value(), tds::Backend::kCeh,
          kMaxOps, in);
      break;
    case 1:
      (void)tds::RunEngineMergeFuzz(tds::PolynomialDecay::Create(1.0).value(),
                                    tds::Backend::kCeh, kMaxOps, in);
      break;
    default:
      (void)tds::RunEngineMergeFuzz(tds::PolynomialDecay::Create(1.0).value(),
                                    tds::Backend::kWbmh, kMaxOps, in);
      break;
  }
  return 0;
}

#endif  // TDS_LIBFUZZER
