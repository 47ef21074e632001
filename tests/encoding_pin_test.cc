// Encoding pins: fixed seeded streams through every histogram-backed
// structure, with the FNV-1a of the resulting transcript (each encoded
// state plus the answer at that point) compared against a constant.
//
// Round-trip tests prove a codec is self-inverse; they cannot notice a
// change that alters what gets stored, e.g. a different WBMH re-rounding
// order or a bucket that keeps the wrong count. These pins can: a storage
// refactor must leave every constant unchanged, which makes the wire format
// and the answers byte-identical across the change. Update a constant only
// for a deliberate format or algorithm change, and say so in the commit.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/coarse_ceh.h"
#include "core/factory.h"
#include "core/snapshot.h"
#include "core/wbmh.h"
#include "decay/custom.h"
#include "decay/polynomial.h"
#include "engine/registry.h"
#include "histogram/exponential_histogram.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {
namespace {

uint64_t Fnv1a(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void AppendDouble(std::string* transcript, double value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  transcript->append(bytes, sizeof(bytes));
}

/// A seeded stream with gaps, same-tick repeats and occasional large values
/// (which take the multi-digit cascade path).
struct PinItem {
  Tick t;
  uint64_t value;
};

std::vector<PinItem> PinStream(uint64_t seed, size_t items) {
  Rng rng(seed);
  std::vector<PinItem> stream;
  stream.reserve(items);
  Tick t = 1;
  for (size_t i = 0; i < items; ++i) {
    t += static_cast<Tick>(rng.NextBelow(4));  // 0 repeats the tick
    const uint64_t value =
        rng.NextBelow(16) == 0 ? 1 + rng.NextBelow(5000) : rng.NextBelow(3);
    stream.push_back(PinItem{t, value});
  }
  return stream;
}

/// 1/x decay truncated at age 400: a finite horizon, so the structures
/// expire and drop buckets.
DecayPtr TruncatedInverse() {
  return CustomDecay::Create(
             [](Tick age) { return 1.0 / static_cast<double>(age); }, 400,
             "pin_inverse_h400")
      .value();
}

/// Feeds `stream` to `sum`, snapshotting and querying every 500 items.
uint64_t PinDecayedSum(DecayedAggregate& sum,
                       const std::vector<PinItem>& stream) {
  std::string transcript;
  for (size_t i = 0; i < stream.size(); ++i) {
    sum.Update(stream[i].t, stream[i].value);
    if ((i + 1) % 500 != 0 && i + 1 != stream.size()) continue;
    std::string blob;
    EXPECT_TRUE(EncodeDecayedSum(sum, &blob).ok());
    transcript += blob;
    AppendDouble(&transcript, sum.Query(stream[i].t + 7));
  }
  return Fnv1a(transcript);
}

TEST(EncodingPinTest, ExponentialHistogram) {
  ExponentialHistogram::Options options;
  options.epsilon = 0.1;
  options.window = 1000;
  auto eh = ExponentialHistogram::Create(options).value();
  const std::vector<PinItem> stream = PinStream(11, 6000);
  std::string transcript;
  for (size_t i = 0; i < stream.size(); ++i) {
    eh.Add(stream[i].t, stream[i].value);
    if ((i + 1) % 500 != 0) continue;
    Encoder encoder;
    eh.EncodeState(encoder);
    transcript += encoder.Finish();
    AppendDouble(&transcript, eh.EstimateWindow(300));
  }
  EXPECT_EQ(Fnv1a(transcript), 0x0bb4e6e5315a8907ull);
}

TEST(EncodingPinTest, Ceh) {
  const auto options =
      AggregateOptions::Builder().backend(Backend::kCeh).epsilon(0.1).Build();
  auto sum =
      MakeDecayedSum(PolynomialDecay::Create(1.0).value(), options.value());
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(PinDecayedSum(**sum, PinStream(12, 4000)), 0x9fc0b59e0a6c39d9ull);
}

TEST(EncodingPinTest, CoarseCeh) {
  for (const bool finite : {false, true}) {
    auto sum = CoarseCehDecayedSum::Create(
        finite ? TruncatedInverse() : PolynomialDecay::Create(1.0).value(),
        CoarseCehDecayedSum::Options{});
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(PinDecayedSum(**sum, PinStream(13, 4000)),
              finite ? 0xb65e04b4ad4fa88cull : 0x771c318b34e8b04cull)
        << "finite horizon: " << finite;
  }
}

TEST(EncodingPinTest, OwnedLayoutWbmh) {
  for (const bool finite : {false, true}) {
    WbmhDecayedSum::Options options;
    options.epsilon = 0.1;
    options.require_admissible = false;
    auto sum = WbmhDecayedSum::Create(
        finite ? TruncatedInverse() : PolynomialDecay::Create(1.0).value(),
        options);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(PinDecayedSum(**sum, PinStream(14, 6000)),
              finite ? 0xc69228fa8309c56bull : 0xc760e9cd177cbaffull)
        << "finite horizon: " << finite;
  }
}

// Many counters on the registry's one shared layout, fed in batches: most
// keys sit behind the layout between their own updates, so both the lazy
// op replay and the behind-the-layout estimate are pinned.
TEST(EncodingPinTest, SharedLayoutWbmhRegistry) {
  AggregateRegistry::Options options;
  options.aggregate =
      AggregateOptions::Builder().backend(Backend::kWbmh).epsilon(0.1).Build()
          .value();
  auto registry = AggregateRegistry::Create(
      PolynomialDecay::Create(1.0).value(), options);
  ASSERT_TRUE(registry.ok());
  Rng rng(15);
  Tick t = 1;
  std::string transcript;
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<KeyedItem> items(512);
    for (KeyedItem& item : items) {
      t += static_cast<Tick>(rng.NextBelow(2));
      // Skewed keys: a few hot keys, a long tail of cold ones.
      item.key = rng.NextBelow(4) == 0 ? rng.NextBelow(300) : rng.NextBelow(8);
      item.t = t;
      item.value = 1 + rng.NextBelow(rng.NextBelow(32) == 0 ? 1000 : 3);
    }
    registry->UpdateBatch(items);
    AppendDouble(&transcript, registry->Query(3, t + 5));
    AppendDouble(&transcript, registry->QueryTotal(t + 5));
    std::string blob;
    ASSERT_TRUE(registry->EncodeState(&blob).ok());
    transcript += blob;
  }
  EXPECT_EQ(Fnv1a(transcript), 0xafcad803709d71beull);
}

}  // namespace
}  // namespace tds
