// Snapshot (serialization) round-trips: encode a structure mid-stream,
// decode it into a fresh instance, continue feeding both, and require
// bit-identical answers forever after.
#include "core/snapshot.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ceh.h"
#include "core/coarse_ceh.h"
#include "core/ewma.h"
#include "core/exact.h"
#include "core/factory.h"
#include "core/polyexp_counter.h"
#include "core/recent_items.h"
#include "core/wbmh.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "histogram/exponential_histogram.h"
#include "histogram/flat_store.h"
#include "histogram/wbmh_layout.h"
#include "histogram/wbmh_state.h"
#include "sketch/decayed_lp_norm.h"
#include "stream/generators.h"
#include "util/approx_age.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {
namespace {

TEST(CodecTest, VarintRoundTrip) {
  Encoder encoder;
  for (uint64_t value : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                         ~0ull}) {
    encoder.PutVarint(value);
  }
  const std::string bytes = encoder.Finish();
  Decoder decoder(bytes);
  for (uint64_t expected : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                            ~0ull}) {
    uint64_t value = 0;
    ASSERT_TRUE(decoder.GetVarint(&value));
    EXPECT_EQ(value, expected);
  }
  EXPECT_TRUE(decoder.Done());
}

TEST(CodecTest, SignedAndDoubleRoundTrip) {
  Encoder encoder;
  encoder.PutSigned(-12345);
  encoder.PutSigned(0);
  encoder.PutSigned(987654321);
  encoder.PutDouble(3.14159);
  encoder.PutDouble(-0.0);
  encoder.PutString("hello");
  const std::string bytes = encoder.Finish();
  Decoder decoder(bytes);
  int64_t a = 0, b = 0, c = 0;
  double d = 0, e = 0;
  std::string s;
  ASSERT_TRUE(decoder.GetSigned(&a));
  ASSERT_TRUE(decoder.GetSigned(&b));
  ASSERT_TRUE(decoder.GetSigned(&c));
  ASSERT_TRUE(decoder.GetDouble(&d));
  ASSERT_TRUE(decoder.GetDouble(&e));
  ASSERT_TRUE(decoder.GetString(&s));
  EXPECT_EQ(a, -12345);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(c, 987654321);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_DOUBLE_EQ(e, -0.0);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(decoder.Done());
}

TEST(CodecTest, TruncationDetected) {
  Encoder encoder;
  encoder.PutDouble(1.0);
  std::string bytes = encoder.Finish();
  bytes.resize(4);
  Decoder decoder(bytes);
  double value = 0;
  EXPECT_FALSE(decoder.GetDouble(&value));
  uint64_t big = 0;
  Decoder empty("");
  EXPECT_FALSE(empty.GetVarint(&big));
}

// A reused scratch encoder, raw appends and in-place string views: the
// registry codec's building blocks.
TEST(CodecTest, ScratchReuseAndViews) {
  Encoder scratch;
  for (const uint64_t value : {0ull, 127ull, 128ull, 1ull << 40, ~0ull}) {
    scratch.Clear();
    scratch.PutVarint(value);
    EXPECT_EQ(scratch.size(), VarintLength(value));
  }
  scratch.Clear();
  scratch.PutString("payload");
  Encoder encoder;
  encoder.PutRaw(scratch.view());
  encoder.PutString(std::string(300, 'x'));  // a two-byte length prefix
  const std::string bytes = encoder.Finish();
  EXPECT_EQ(encoder.size(), 0u);
  Decoder decoder(bytes);
  std::string_view first, second;
  ASSERT_TRUE(decoder.GetView(&first));
  ASSERT_TRUE(decoder.GetView(&second));
  EXPECT_EQ(first, "payload");
  EXPECT_EQ(second, std::string(300, 'x'));
  EXPECT_EQ(first.data(), bytes.data() + 1);  // a view, not a copy
  EXPECT_TRUE(decoder.Done());
  Decoder truncated(std::string_view(bytes).substr(0, bytes.size() - 1));
  ASSERT_TRUE(truncated.GetView(&first));
  EXPECT_FALSE(truncated.GetView(&second));
}

struct SnapshotCase {
  const char* label;
  DecayPtr decay;
  Backend backend;
};

class SnapshotRoundTripTest : public ::testing::TestWithParam<int> {};

std::vector<SnapshotCase> Cases() {
  std::vector<SnapshotCase> cases;
  cases.push_back({"exact", PolynomialDecay::Create(1.0).value(),
                   Backend::kExact});
  cases.push_back({"ewma", ExponentialDecay::Create(0.01).value(),
                   Backend::kEwma});
  cases.push_back({"recent", ExponentialDecay::Create(0.05).value(),
                   Backend::kRecentItems});
  cases.push_back({"polyexp", PolyExponentialDecay::Create(2, 0.05).value(),
                   Backend::kPolyExp});
  cases.push_back({"ceh_sliwin", SlidingWindowDecay::Create(200).value(),
                   Backend::kCeh});
  cases.push_back({"ceh_polyd", PolynomialDecay::Create(1.5).value(),
                   Backend::kCeh});
  cases.push_back({"coarse", PolynomialDecay::Create(1.0).value(),
                   Backend::kCoarseCeh});
  cases.push_back({"wbmh", PolynomialDecay::Create(2.0).value(),
                   Backend::kWbmh});
  return cases;
}

TEST(SnapshotTest, MidStreamRoundTripContinuesIdentically) {
  for (const SnapshotCase& test_case : Cases()) {
    const AggregateOptions options = AggregateOptions::Builder()
                                     .backend(test_case.backend)
                                     .epsilon(0.1)
                                     .Build()
                                     .value();
    auto original = MakeDecayedSum(test_case.decay, options);
    ASSERT_TRUE(original.ok()) << test_case.label;

    const Stream stream = BurstyStream(3000, 25, 40, 2.0, 17);
    size_t half = stream.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      (*original)->Update(stream[i].t, stream[i].value);
    }

    std::string bytes;
    ASSERT_TRUE(EncodeDecayedSum(**original, &bytes).ok()) << test_case.label;
    auto restored = DecodeDecayedSum(test_case.decay, bytes);
    ASSERT_TRUE(restored.ok())
        << test_case.label << ": " << restored.status().ToString();
    EXPECT_EQ((*restored)->Name(), (*original)->Name());

    // Continue both with the second half; answers must match exactly at
    // every probe (the snapshot is the complete state).
    for (size_t i = half; i < stream.size(); ++i) {
      (*original)->Update(stream[i].t, stream[i].value);
      (*restored)->Update(stream[i].t, stream[i].value);
      if (i % 50 == 0) {
        ASSERT_DOUBLE_EQ((*original)->Query(stream[i].t),
                         (*restored)->Query(stream[i].t))
            << test_case.label << " at " << stream[i].t;
      }
    }
    const Tick end = StreamEnd(stream) + 500;
    EXPECT_DOUBLE_EQ((*original)->Query(end), (*restored)->Query(end))
        << test_case.label;
    EXPECT_EQ((*original)->StorageBits(), (*restored)->StorageBits())
        << test_case.label;
  }
}

// A standalone recent-items snapshot names its C but not its epsilon, so
// decode rebuilds the counter at that C: a counter at epsilon 0.5 comes back
// with its 531 items, not the 692 of the default epsilon 0.1.
TEST(SnapshotTest, RecentItemsRoundTripKeepsItsCapacity) {
  auto decay = ExponentialDecay::Create(0.01).value();
  RecentItemsExpCounter::Options loose;
  loose.epsilon = 0.5;
  auto original = RecentItemsExpCounter::Create(decay, loose);
  ASSERT_TRUE(original.ok());
  for (Tick t = 1; t <= 800; ++t) (*original)->Update(t, 1 + t % 3);
  std::string bytes;
  ASSERT_TRUE(EncodeDecayedSum(**original, &bytes).ok());
  auto restored = DecodeDecayedSum(decay, bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const auto* typed =
      dynamic_cast<const RecentItemsExpCounter*>(restored->get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->params().capacity, (*original)->params().capacity);
  EXPECT_LT(typed->params().capacity, 692u);
  for (Tick t = 801; t <= 1200; ++t) {
    (*original)->Update(t, 1);
    (*restored)->Update(t, 1);
  }
  EXPECT_DOUBLE_EQ((*restored)->Query(1300), (*original)->Query(1300));
}

// The structure's copy constructor, through its concrete type.
std::unique_ptr<DecayedAggregate> CopyOf(const DecayedAggregate& source) {
  if (const auto* p = dynamic_cast<const ExactDecayedSum*>(&source)) {
    return std::make_unique<ExactDecayedSum>(*p);
  }
  if (const auto* p = dynamic_cast<const EwmaCounter*>(&source)) {
    return std::make_unique<EwmaCounter>(*p);
  }
  if (const auto* p = dynamic_cast<const RecentItemsExpCounter*>(&source)) {
    return std::make_unique<RecentItemsExpCounter>(*p);
  }
  if (const auto* p = dynamic_cast<const PolyExpCounter*>(&source)) {
    return std::make_unique<PolyExpCounter>(*p);
  }
  if (const auto* p = dynamic_cast<const CehDecayedSum*>(&source)) {
    return std::make_unique<CehDecayedSum>(*p);
  }
  if (const auto* p = dynamic_cast<const CoarseCehDecayedSum*>(&source)) {
    return std::make_unique<CoarseCehDecayedSum>(*p);
  }
  if (const auto* p = dynamic_cast<const WbmhDecayedSum*>(&source)) {
    return std::make_unique<WbmhDecayedSum>(*p);
  }
  ADD_FAILURE() << "no copy for " << source.Name();
  return nullptr;
}

// A copy is the in-memory twin of an encode / decode round trip: it
// encodes to the same bytes, keeps them while the source moves on (a
// private WBMH layout is copied, not shared), and continues identically.
void ExpectClonesContinueLikeTheirSources(const Stream& stream,
                                          double epsilon) {
  for (const SnapshotCase& test_case : Cases()) {
    SCOPED_TRACE(test_case.label);
    const AggregateOptions options = AggregateOptions::Builder()
                                     .backend(test_case.backend)
                                     .epsilon(epsilon)
                                     .Build()
                                     .value();
    auto original = MakeDecayedSum(test_case.decay, options);
    ASSERT_TRUE(original.ok());
    const size_t half = stream.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      (*original)->Update(stream[i].t, stream[i].value);
    }
    const std::unique_ptr<DecayedAggregate> clone = CopyOf(**original);
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(clone->Name(), (*original)->Name());
    std::string source_bytes, clone_bytes;
    ASSERT_TRUE(EncodeDecayedSum(**original, &source_bytes).ok());
    ASSERT_TRUE(EncodeDecayedSum(*clone, &clone_bytes).ok());
    EXPECT_EQ(clone_bytes, source_bytes);

    for (size_t i = half; i < stream.size(); ++i) {
      (*original)->Update(stream[i].t, stream[i].value);
    }
    std::string unchanged;
    ASSERT_TRUE(EncodeDecayedSum(*clone, &unchanged).ok());
    EXPECT_EQ(unchanged, clone_bytes) << "the source's updates reached it";

    for (size_t i = half; i < stream.size(); ++i) {
      clone->Update(stream[i].t, stream[i].value);
    }
    ASSERT_TRUE(EncodeDecayedSum(**original, &source_bytes).ok());
    ASSERT_TRUE(EncodeDecayedSum(*clone, &clone_bytes).ok());
    EXPECT_EQ(clone_bytes, source_bytes);
    const Tick end = StreamEnd(stream) + 500;
    EXPECT_EQ(clone->Query(end), (*original)->Query(end));
  }
}

TEST(SnapshotTest, CloneEncodesAndContinuesLikeItsSource) {
  {
    SCOPED_TRACE("bursty");
    ExpectClonesContinueLikeTheirSources(BurstyStream(3000, 25, 40, 2.0, 17),
                                         0.1);
  }
  // Grown bucket blocks: epsilon 0.01 (101 buckets a class) and multi-class
  // values give the histograms hundreds of stamps, and each clone's
  // exactly-sized block has to grow again as it continues.
  SCOPED_TRACE("grown");
  Stream grown;
  Rng rng(29);
  for (Tick t = 1; t <= 1500; ++t) {
    grown.push_back({t, (1 + rng.NextBelow(8)) << rng.NextBelow(12)});
  }
  ExpectClonesContinueLikeTheirSources(grown, 0.01);
}

TEST(SnapshotTest, EmptyStructureRoundTrips) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const AggregateOptions options = AggregateOptions::Builder()
                                   .backend(Backend::kCeh)
                                   .Build()
                                   .value();
  auto original = MakeDecayedSum(decay, options);
  std::string bytes;
  ASSERT_TRUE(EncodeDecayedSum(**original, &bytes).ok());
  auto restored = DecodeDecayedSum(decay, bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ((*restored)->Query(100), 0.0);
}

TEST(SnapshotTest, RejectsWrongDecay) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const AggregateOptions options = AggregateOptions::Builder()
                                   .backend(Backend::kCeh)
                                   .Build()
                                   .value();
  auto original = MakeDecayedSum(decay, options);
  (*original)->Update(5, 3);
  std::string bytes;
  ASSERT_TRUE(EncodeDecayedSum(**original, &bytes).ok());
  auto wrong = DecodeDecayedSum(PolynomialDecay::Create(2.0).value(), bytes);
  EXPECT_FALSE(wrong.ok());
}

TEST(SnapshotTest, RejectsCorruptData) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const AggregateOptions options = AggregateOptions::Builder()
                                   .backend(Backend::kWbmh)
                                   .Build()
                                   .value();
  auto original = MakeDecayedSum(decay, options);
  for (Tick t = 1; t <= 500; ++t) (*original)->Update(t, 1);
  std::string bytes;
  ASSERT_TRUE(EncodeDecayedSum(**original, &bytes).ok());
  EXPECT_FALSE(DecodeDecayedSum(decay, "garbage").ok());
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_FALSE(DecodeDecayedSum(decay, truncated).ok());
  std::string flipped = bytes;
  flipped[2] ^= 0x5a;  // corrupt the magic
  EXPECT_FALSE(DecodeDecayedSum(decay, flipped).ok());
}

// A hostile CoarseCEH payload whose bucket counts wrap the 64-bit total
// back to the encoded total: two class-63 buckets of 2^63 sum to 0.
TEST(SnapshotTest, RejectsCoarseCehBucketTotalThatWraps) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const CoarseCehDecayedSum::Options options;
  Encoder encoder;
  encoder.PutDouble(options.epsilon);
  encoder.PutDouble(options.boundary_delta);
  encoder.PutSigned(10);     // now
  encoder.PutVarint(0);      // total count
  encoder.PutDouble(2.0);    // max age seen
  for (uint64_t word : {1, 2, 3, 4}) encoder.PutVarint(word);  // rng
  encoder.PutVarint(64);     // classes
  for (int c = 0; c < 63; ++c) encoder.PutVarint(0);
  encoder.PutVarint(2);  // class 63: two fresh buckets
  for (int b = 0; b < 2; ++b) {
    ApproxAge(options.boundary_delta).EncodeTo(encoder);
    encoder.PutVarint(uint64_t{1} << 63);
  }
  const std::string blob = encoder.Finish();

  auto target = CoarseCehDecayedSum::Create(decay, options);
  ASSERT_TRUE(target.ok());
  Decoder decoder(blob);
  EXPECT_FALSE((*target)->DecodeState(decoder).ok());
}

// The CoarseCEH decoder admits up to 2 * cap + 2 buckets in a class. A blob
// whose class 0 holds cap + 5 must not turn the store's class-0 budget test
// around: the next inserts merge class 0 back under cap, a huge value
// included, instead of appending past it.
TEST(SnapshotTest, CoarseCehOverfullClassZeroMergesBackUnderCap) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const CoarseCehDecayedSum::Options options;
  const uint64_t cap = ClassBudget(options.epsilon);
  const uint64_t overfull = cap + 5;
  Encoder encoder;
  encoder.PutDouble(options.epsilon);
  encoder.PutDouble(options.boundary_delta);
  encoder.PutSigned(10);        // now
  encoder.PutVarint(overfull);  // total count
  encoder.PutDouble(2.0);       // max age seen
  for (uint64_t word : {1, 2, 3, 4}) encoder.PutVarint(word);  // rng
  encoder.PutVarint(1);         // classes
  encoder.PutVarint(overfull);  // class 0
  for (uint64_t b = 0; b < overfull; ++b) {
    ApproxAge(options.boundary_delta).EncodeTo(encoder);
    encoder.PutVarint(1);
  }
  const std::string blob = encoder.Finish();

  auto target = CoarseCehDecayedSum::Create(decay, options);
  ASSERT_TRUE(target.ok());
  CoarseCehDecayedSum& ceh = **target;
  Decoder decoder(blob);
  ASSERT_TRUE(ceh.DecodeState(decoder).ok());
  EXPECT_EQ(ceh.state().BucketCount(), overfull);

  // cap + 6 class-0 buckets: three merges leave cap in class 0, 3 in 1.
  ceh.Update(10, 1);
  ASSERT_TRUE(ceh.AuditInvariants().ok());
  EXPECT_EQ(ceh.state().TotalCount(), overfull + 1);
  EXPECT_EQ(ceh.state().BucketCount(), cap + 3);

  const uint64_t huge = uint64_t{1} << 40;
  ceh.Update(10, huge);
  ASSERT_TRUE(ceh.AuditInvariants().ok());
  EXPECT_EQ(ceh.state().TotalCount(), overfull + 1 + huge);
  // At most cap buckets in each of the 41 classes a 2^40 + cap + 6 total
  // spans.
  EXPECT_LE(ceh.state().BucketCount(), 41 * cap);
}

// The EH stores no counts, so a bucket whose count is not its class's
// power of two is refused by the decoder itself — here a class-0 bucket of
// count 2 with a total that agrees with it.
TEST(SnapshotTest, RejectsEhBucketCountOffItsClass) {
  ExponentialHistogram::Options options;
  options.window = 100;
  Encoder encoder;
  encoder.PutDouble(options.epsilon);
  encoder.PutSigned(options.window);
  encoder.PutSigned(10);  // now
  encoder.PutSigned(5);   // first arrival
  encoder.PutVarint(2);   // total count
  encoder.PutVarint(1);   // classes
  encoder.PutVarint(1);   // class 0: one bucket
  encoder.PutVarint(5);   // end tick delta
  encoder.PutVarint(2);   // count
  const std::string blob = encoder.Finish();

  auto target = ExponentialHistogram::Create(options);
  ASSERT_TRUE(target.ok());
  Decoder decoder(blob);
  const Status status = target->DecodeState(decoder);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("EH bucket"), std::string::npos)
      << status.message();
}

std::shared_ptr<WbmhLayout> MakeSharedLayout() {
  WbmhLayout::Options layout_options;
  layout_options.decay = PolynomialDecay::Create(1.0).value();
  layout_options.epsilon = 0.5;
  return std::make_shared<WbmhLayout>(
      std::move(WbmhLayout::Create(layout_options)).value());
}

// A counter keeps its cells in bucket-id order, so a blob whose cells are
// out of order is corrupt even when every id is live in the layout.
TEST(SnapshotTest, RejectsWbmhCounterCellsOutOfOrder) {
  auto layout = MakeSharedLayout();
  const WbmhParams params(layout.get(), 0.5);
  WbmhState counter(params);
  for (Tick t = 1; t <= 500; ++t) counter.Update(params, t, 1);
  Encoder encoder;
  ASSERT_TRUE(counter.EncodeState(params, encoder).ok());
  const std::string blob = encoder.Finish();

  // Re-encode with the first two cells swapped.
  Decoder decoder(blob);
  double count_epsilon = 0.0;
  uint64_t applied = 0, size = 0;
  ASSERT_TRUE(decoder.GetDouble(&count_epsilon) &&
              decoder.GetVarint(&applied) && decoder.GetVarint(&size));
  ASSERT_GE(size, 2u);
  struct RawCell {
    uint64_t id = 0;
    double value = 0.0;
    uint64_t level = 0;
  };
  std::vector<RawCell> cells(size);
  for (RawCell& cell : cells) {
    ASSERT_TRUE(decoder.GetVarint(&cell.id) && decoder.GetDouble(&cell.value) &&
                decoder.GetVarint(&cell.level));
  }
  std::swap(cells[0], cells[1]);
  Encoder hostile;
  hostile.PutDouble(count_epsilon);
  hostile.PutVarint(applied);
  hostile.PutVarint(size);
  for (const RawCell& cell : cells) {
    hostile.PutVarint(cell.id);
    hostile.PutDouble(cell.value);
    hostile.PutVarint(cell.level);
  }
  const std::string hostile_blob = hostile.Finish();

  WbmhState target(params);
  Decoder hostile_decoder(hostile_blob);
  EXPECT_FALSE(target.DecodeState(params, hostile_decoder).ok());
}

// A standalone WBMH blob adopts its counter's count_epsilon, so decode
// must refuse one that names no mantissa width instead of casting it.
TEST(SnapshotTest, RejectsWbmhCountEpsilonWithoutMantissaWidth) {
  auto decay = PolynomialDecay::Create(1.0).value();
  WbmhDecayedSum::Options options;
  options.epsilon = 0.5;
  auto sum = WbmhDecayedSum::Create(decay, options);
  ASSERT_TRUE(sum.ok());
  for (Tick t = 1; t <= 300; ++t) (*sum)->Update(t, 1 + t % 3);
  std::string blob;
  ASSERT_TRUE(EncodeDecayedSum(**sum, &blob).ok());
  ASSERT_TRUE(DecodeDecayedSum(decay, blob).ok());

  // The counter state follows the layout state at the blob's end; its
  // first field is count_epsilon.
  Encoder layout_state;
  ASSERT_TRUE((*sum)->layout().EncodeState(layout_state).ok());
  const std::string layout_bytes = layout_state.Finish();
  const size_t layout_at = blob.rfind(layout_bytes);
  ASSERT_NE(layout_at, std::string::npos);
  const size_t offset = layout_at + layout_bytes.size();
  ASSERT_LT(offset + 8, blob.size());
  for (const double count_epsilon :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e-320}) {
    Encoder field;
    field.PutDouble(count_epsilon);
    std::string hostile = blob;
    hostile.replace(offset, 8, field.Finish());
    EXPECT_FALSE(DecodeDecayedSum(decay, hostile).ok())
        << "count_epsilon=" << count_epsilon;
  }
}

// An option field wider than the int it configures is compared whole: a
// blob naming 2^32 plus the real value would otherwise decode as that value
// and re-encode to other bytes, breaking the self-inverse codec.
TEST(SnapshotTest, RejectsOptionFieldPastInt) {
  const uint64_t past_int = uint64_t{1} << 32;
  auto Blob = [](const DecayFunction& decay, std::string_view type,
                 const Encoder& payload) {
    Encoder encoder;
    PutSnapshotEnvelopePrefix(encoder, type, decay.Name());
    encoder.PutString(payload.view());
    return encoder.Finish();
  };
  {
    SCOPED_TRACE("EWMA mantissa_bits = 2^32");
    auto decay = ExponentialDecay::Create(0.01).value();
    Encoder payload;
    payload.PutVarint(past_int);
    payload.PutDouble(1.0);  // register
    payload.PutDouble(1.0);  // max register
    payload.PutSigned(10);   // now
    payload.PutSigned(10);   // first arrival
    const auto decoded = DecodeDecayedSum(decay, Blob(*decay, "EWMA", payload));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    SCOPED_TRACE("POLYEXP_PIPE k = 2^32 + 2");
    auto decay = PolyExponentialDecay::Create(2, 0.05).value();
    Encoder payload;
    payload.PutVarint(past_int + 2);
    payload.PutSigned(10);  // now
    for (int j = 0; j <= 2; ++j) payload.PutDouble(1.0);
    const auto decoded =
        DecodeDecayedSum(decay, Blob(*decay, "POLYEXP_PIPE", payload));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    SCOPED_TRACE("L_p sketch rows = 2^32 + 2");
    auto decay = SlidingWindowDecay::Create(64).value();
    DecayedLpNorm::Options options;
    options.rows = 2;
    auto sketch = DecayedLpNorm::Create(decay, options);
    ASSERT_TRUE(sketch.ok());
    Encoder state;
    sketch->EncodeState(state);
    // The state leads with p (8 bytes) and rows (one varint byte).
    const std::string_view rest = state.view().substr(9);
    Encoder payload;
    payload.PutDouble(options.p);
    payload.PutVarint(past_int + 2);
    payload.PutRaw(rest);
    Encoder blob;
    blob.PutString("TDSLP1");
    blob.PutString(decay->Name());
    blob.PutString(payload.view());
    const auto decoded = DecodeDecayedLpNorm(decay, blob.Finish());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

// Layout ids increase oldest-first; a blob listing the same spans under
// descending ids is refused by the decode audit.
TEST(SnapshotTest, RejectsWbmhLayoutIdsNotIncreasing) {
  auto layout = MakeSharedLayout();
  layout->AdvanceTo(2000);
  layout->TrimLog(layout->OpSeq());
  Encoder encoder;
  ASSERT_TRUE(layout->EncodeState(encoder).ok());
  const std::string blob = encoder.Finish();

  Decoder decoder(blob);
  double epsilon = 0.0;
  int64_t start = 0, now = 0, settled = 0, next_seal = 0;
  uint64_t next_id = 0, next_seq = 0, node_count = 0;
  ASSERT_TRUE(decoder.GetDouble(&epsilon) && decoder.GetSigned(&start) &&
              decoder.GetSigned(&now) && decoder.GetSigned(&settled) &&
              decoder.GetSigned(&next_seal) && decoder.GetVarint(&next_id) &&
              decoder.GetVarint(&next_seq) && decoder.GetVarint(&node_count));
  ASSERT_GE(node_count, 2u);
  std::vector<uint64_t> ids(node_count);
  std::vector<int64_t> starts(node_count), ends(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    ASSERT_TRUE(decoder.GetVarint(&ids[i]) && decoder.GetSigned(&starts[i]) &&
                decoder.GetSigned(&ends[i]));
  }
  std::reverse(ids.begin(), ids.end());
  Encoder hostile;
  hostile.PutDouble(epsilon);
  hostile.PutSigned(start);
  hostile.PutSigned(now);
  hostile.PutSigned(settled);
  hostile.PutSigned(next_seal);
  hostile.PutVarint(next_id);
  hostile.PutVarint(next_seq);
  hostile.PutVarint(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    hostile.PutVarint(ids[i]);
    hostile.PutSigned(starts[i]);
    hostile.PutSigned(ends[i]);
  }
  const std::string hostile_blob = hostile.Finish();

  auto target = MakeSharedLayout();
  Decoder hostile_decoder(hostile_blob);
  const Status status = target->DecodeState(hostile_decoder);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("increase oldest-first"), std::string::npos)
      << status.message();
}

TEST(SnapshotTest, DecayedAverageRoundTrip) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const AggregateOptions options = AggregateOptions::Builder()
                                   .epsilon(0.1)
                                   .Build()
                                   .value();
  auto original = MakeDecayedAverage(decay, options);
  ASSERT_TRUE(original.ok());
  for (Tick t = 1; t <= 1000; ++t) original->Observe(t, 5 + t % 7);
  std::string bytes;
  ASSERT_TRUE(EncodeDecayedAverage(*original, &bytes).ok());
  auto restored = DecodeDecayedAverage(decay, bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (Tick t = 1001; t <= 1500; ++t) {
    original->Observe(t, 5 + t % 7);
    restored->Observe(t, 5 + t % 7);
  }
  EXPECT_DOUBLE_EQ(original->Query(1500), restored->Query(1500));
}

TEST(SnapshotTest, DecoderSurvivesRandomBytes) {
  auto decay = PolynomialDecay::Create(1.0).value();
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.NextBelow(200), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextBelow(256));
    auto result = DecodeDecayedSum(decay, garbage);
    EXPECT_FALSE(result.ok());
  }
}

TEST(SnapshotTest, DecoderSurvivesMutatedSnapshots) {
  // Take a real snapshot and flip random bytes: every outcome must be a
  // clean error or a successfully-decoded structure (flips in count fields
  // can decode), never a crash or CHECK.
  auto decay = PolynomialDecay::Create(1.0).value();
  Rng rng(999);
  for (Backend backend :
       {Backend::kCeh, Backend::kCoarseCeh, Backend::kWbmh}) {
    const AggregateOptions options = AggregateOptions::Builder()
                                     .backend(backend)
                                     .Build()
                                     .value();
    auto original = MakeDecayedSum(decay, options);
    for (Tick t = 1; t <= 300; ++t) (*original)->Update(t, 1);
    std::string bytes;
    ASSERT_TRUE(EncodeDecayedSum(**original, &bytes).ok());
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutated = bytes;
      const size_t index = rng.NextBelow(mutated.size());
      mutated[index] = static_cast<char>(mutated[index] ^
                                         (1u << rng.NextBelow(8)));
      auto result = DecodeDecayedSum(decay, mutated);
      if (result.ok() && backend != Backend::kWbmh) {
        // Decoded fine: it must still answer queries without crashing.
        // (Query far in the future: snapshot clocks are opaque here. WBMH
        // is excluded — advancing its layout to 2^40 legitimately costs
        // O(delta/period) events; its decode validation is the target.)
        (*result)->Query(Tick{1} << 40);
      }
    }
  }
}

TEST(SnapshotTest, SharedLayoutCounterRoundTrip) {
  // Shared-layout deployments: snapshot the layout once and each counter
  // separately; restore into a fresh layout+counters.
  auto decay = PolynomialDecay::Create(1.0).value();
  WbmhLayout::Options layout_options;
  layout_options.decay = decay;
  layout_options.epsilon = 0.5;
  auto source_layout = std::make_shared<WbmhLayout>(
      std::move(WbmhLayout::Create(layout_options)).value());
  const WbmhParams source(source_layout.get(), 0.5);
  WbmhState counter_a(source);
  WbmhState counter_b(source);
  for (Tick t = 1; t <= 2000; ++t) {
    counter_a.Update(source, t, 1);
    if (t % 3 == 0) counter_b.Update(source, t, 2);
  }
  counter_a.Sync(source);
  counter_b.Sync(source);
  source_layout->TrimLog(source_layout->OpSeq());

  Encoder layout_encoder;
  ASSERT_TRUE(source_layout->EncodeState(layout_encoder).ok());
  Encoder a_encoder, b_encoder;
  ASSERT_TRUE(counter_a.EncodeState(source, a_encoder).ok());
  ASSERT_TRUE(counter_b.EncodeState(source, b_encoder).ok());

  auto restored_layout = std::make_shared<WbmhLayout>(
      std::move(WbmhLayout::Create(layout_options)).value());
  std::string layout_bytes = layout_encoder.Finish();
  Decoder layout_decoder(layout_bytes);
  ASSERT_TRUE(restored_layout->DecodeState(layout_decoder).ok());
  const WbmhParams restored(restored_layout.get(), 0.5);
  WbmhState restored_a(restored);
  WbmhState restored_b(restored);
  std::string a_bytes = a_encoder.Finish();
  std::string b_bytes = b_encoder.Finish();
  Decoder a_decoder(a_bytes);
  Decoder b_decoder(b_bytes);
  ASSERT_TRUE(restored_a.DecodeState(restored, a_decoder).ok());
  ASSERT_TRUE(restored_b.DecodeState(restored, b_decoder).ok());

  // Continue both worlds identically.
  for (Tick t = 2001; t <= 3000; ++t) {
    counter_a.Update(source, t, 1);
    restored_a.Update(restored, t, 1);
  }
  counter_a.Advance(source, 3000);
  counter_b.Advance(source, 3000);
  restored_a.Advance(restored, 3000);
  restored_b.Advance(restored, 3000);
  EXPECT_DOUBLE_EQ(counter_a.Query(source, 3000),
                   restored_a.Query(restored, 3000));
  EXPECT_DOUBLE_EQ(counter_b.Query(source, 3000),
                   restored_b.Query(restored, 3000));
}

}  // namespace
}  // namespace tds
