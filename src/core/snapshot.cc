#include "core/snapshot.h"

#include "core/backends.h"
#include "core/decayed_average.h"
#include "sketch/decayed_lp_norm.h"
#include "util/audit.h"
#include "util/codec.h"

namespace tds {

constexpr std::string_view kMagic = "TDS1";

Status EncodeDecayedSum(DecayedAggregate& aggregate, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  Encoder payload_encoder;
  const Status status = aggregate.EncodeState(payload_encoder);
  if (!status.ok()) return status;

  Encoder encoder;
  PutSnapshotEnvelopePrefix(encoder, aggregate.Name(),
                            aggregate.decay()->Name());
  encoder.PutString(payload_encoder.view());
  *out = encoder.Finish();
  return Status::OK();
}

void PutSnapshotEnvelopePrefix(Encoder& encoder, std::string_view type,
                               std::string_view decay_name) {
  encoder.PutString(kMagic);
  encoder.PutString(type);
  encoder.PutString(decay_name);
}

Status ParseSnapshotEnvelope(std::string_view data, std::string_view decay_name,
                             std::string_view* type,
                             std::string_view* payload) {
  Decoder decoder(data);
  std::string_view magic, encoded_decay;
  if (!decoder.GetView(&magic) || magic != kMagic) {
    return CorruptSnapshot("bad magic");
  }
  if (!decoder.GetView(type) || !decoder.GetView(&encoded_decay) ||
      !decoder.GetView(payload)) {
    return CorruptSnapshot("bad envelope");
  }
  if (encoded_decay != decay_name) {
    return Status::InvalidArgument(
        "snapshot was taken under decay '" + std::string(encoded_decay) +
        "' but decoding with '" + std::string(decay_name) + "'");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<DecayedAggregate>> DecodeDecayedSum(
    DecayPtr decay, std::string_view data) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  std::string_view type, payload;
  const Status envelope =
      ParseSnapshotEnvelope(data, decay->Name(), &type, &payload);
  if (!envelope.ok()) return envelope;

  // Each owner rebuilds its params from the option fields its payload
  // leads with, then DecodeState verifies and loads the state.
  const Backend backend = BackendNamed(type);
  if (backend == Backend::kAuto) {
    return Status::Unimplemented("unknown snapshot type: " +
                                 std::string(type));
  }
  return VisitBackend(
      backend, [&](auto id) -> StatusOr<std::unique_ptr<DecayedAggregate>> {
        using State = typename decltype(id)::type;
        return Upcast(Owner<State>::Decode(std::move(decay), payload));
      });
}

Status EncodeDecayedLpNorm(const DecayedLpNorm& sketch, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  Encoder encoder;
  encoder.PutString("TDSLP1");
  encoder.PutString(sketch.decay()->Name());
  Encoder payload;
  sketch.EncodeState(payload);
  std::string payload_bytes = payload.Finish();
  encoder.PutString(payload_bytes);
  *out = encoder.Finish();
  return Status::OK();
}

StatusOr<DecayedLpNorm> DecodeDecayedLpNorm(DecayPtr decay,
                                            std::string_view data) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  Decoder decoder(data);
  std::string magic, decay_name, payload;
  if (!decoder.GetString(&magic) || magic != "TDSLP1" ||
      !decoder.GetString(&decay_name) || !decoder.GetString(&payload)) {
    return CorruptSnapshot("bad Lp envelope");
  }
  if (decay_name != decay->Name()) {
    return Status::InvalidArgument("snapshot decay mismatch");
  }
  Decoder peek(payload);
  DecayedLpNorm::Options options;
  uint64_t rows = 0, seed = 0;
  if (!peek.GetDouble(&options.p) || !peek.GetVarint(&rows) ||
      !peek.GetDouble(&options.epsilon) ||
      !peek.GetDouble(&options.quantization) || !peek.GetVarint(&seed)) {
    return CorruptSnapshot("Lp options");
  }
  options.rows = static_cast<int>(rows);
  options.seed = seed;
  auto sketch = DecayedLpNorm::Create(std::move(decay), options);
  if (!sketch.ok()) return sketch.status();
  Decoder body(payload);
  Status status = sketch->DecodeState(body);
  if (!status.ok()) return status;
  return sketch;
}

Status EncodeDecayedAverage(DecayedAverage& average, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  std::string sum_blob, count_blob;
  Status status = EncodeDecayedSum(average.sum_component(), &sum_blob);
  if (!status.ok()) return status;
  status = EncodeDecayedSum(average.count_component(), &count_blob);
  if (!status.ok()) return status;
  Encoder encoder;
  encoder.PutString("TDSAVG1");
  encoder.PutString(sum_blob);
  encoder.PutString(count_blob);
  *out = encoder.Finish();
  return Status::OK();
}

StatusOr<DecayedAverage> DecodeDecayedAverage(DecayPtr decay,
                                              std::string_view data) {
  Decoder decoder(data);
  std::string magic, sum_blob, count_blob;
  if (!decoder.GetString(&magic) || magic != "TDSAVG1" ||
      !decoder.GetString(&sum_blob) || !decoder.GetString(&count_blob)) {
    return CorruptSnapshot("bad average envelope");
  }
  auto sum = DecodeDecayedSum(decay, sum_blob);
  if (!sum.ok()) return sum.status();
  auto count = DecodeDecayedSum(decay, count_blob);
  if (!count.ok()) return count.status();
  return DecayedAverage::Create(std::move(sum).value(),
                                std::move(count).value());
}

Status AuditSnapshotRoundTrip(DecayedAggregate& aggregate) {
  std::string first;
  Status status = EncodeDecayedSum(aggregate, &first);
  if (!status.ok()) return status;
  auto restored = DecodeDecayedSum(aggregate.decay(), first);
  TDS_AUDIT_CHECK(restored.ok(), "decode of a fresh snapshot failed: " +
                                     restored.status().ToString());
  TDS_AUDIT_CHECK((*restored)->Name() == aggregate.Name(),
                  "restored structure type mismatch");
  std::string second;
  status = EncodeDecayedSum(**restored, &second);
  if (!status.ok()) return status;
  TDS_AUDIT_CHECK(first == second,
                  "snapshot round-trip is not byte-identical");
  return Status::OK();
}

}  // namespace tds
