#include "core/wbmh.h"

#include <utility>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {

WbmhDecayedSum::WbmhDecayedSum(WbmhLayout layout, double count_epsilon)
    : layout_(std::move(layout)),
      params_(&layout_, count_epsilon),
      state_(params_) {}

WbmhDecayedSum::WbmhDecayedSum(const WbmhDecayedSum& other)
    : layout_(other.layout_),
      params_(&layout_, other.params_.count_epsilon),
      state_(other.state_) {}

StatusOr<WbmhLayout> WbmhDecayedSum::MakeLayout(DecayPtr decay,
                                                const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  if (options.require_admissible && !decay->IsWbmhAdmissible()) {
    return Status::FailedPrecondition(
        "decay function fails the WBMH admissibility test "
        "(g(x)/g(x+1) must be non-increasing); use another backend");
  }
  WbmhLayout::Options layout_options;
  layout_options.decay = std::move(decay);
  layout_options.epsilon = options.epsilon;
  layout_options.start = options.start;
  return WbmhLayout::Create(layout_options);
}

StatusOr<std::unique_ptr<WbmhDecayedSum>> WbmhDecayedSum::Create(
    DecayPtr decay, const Options& options) {
  const double count_epsilon =
      options.count_epsilon < 0.0 ? options.epsilon : options.count_epsilon;
  // The option itself (-inf would otherwise pass as "tie") and the value
  // it resolves to must both name a mantissa width.
  for (const double value : {options.count_epsilon, count_epsilon}) {
    const Status valid = WbmhParams::ValidateCountEpsilon(value);
    if (!valid.ok()) return valid;
  }
  auto layout = MakeLayout(std::move(decay), options);
  if (!layout.ok()) return layout.status();
  return std::unique_ptr<WbmhDecayedSum>(
      new WbmhDecayedSum(std::move(layout).value(), count_epsilon));
}

StatusOr<std::unique_ptr<WbmhDecayedSum>> WbmhDecayedSum::Decode(
    DecayPtr decay, std::string_view payload) {
  Options options;
  Decoder peek(payload);
  if (!peek.GetDouble(&options.epsilon) || !peek.GetSigned(&options.start)) {
    return CorruptSnapshot("WBMH options");
  }
  // The state payload carries its own count_epsilon after the
  // variable-length layout payload, so construct permissively and let
  // DecodeState adopt it.
  options.count_epsilon = options.epsilon;
  auto created = Create(std::move(decay), options);
  if (!created.ok()) return created;
  Decoder body(payload);
  const Status status = (*created)->DecodeState(body);
  if (!status.ok()) return status;
  return created;
}

void WbmhDecayedSum::Update(Tick t, uint64_t value) {
  state_.Update(params_, t, value);
  TrimLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhDecayedSum::UpdateBatch(std::span<const StreamItem> items) {
  state_.UpdateBatch(params_, items);
  TrimLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhDecayedSum::Advance(Tick now) {
  state_.Advance(params_, now);
  TrimLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

Status WbmhDecayedSum::AuditInvariants() {
  Status status = layout_.AuditInvariants();
  if (!status.ok()) return status;
  return state_.AuditInvariants(params_);
}

Status WbmhDecayedSum::EncodeState(Encoder& encoder) const {
  // Every mutation trims the log, so the state is synced and the layout
  // carries no log here.
  encoder.PutDouble(layout_.epsilon());
  encoder.PutSigned(layout_.start());
  Status status = layout_.EncodeState(encoder);
  if (!status.ok()) return status;
  return state_.EncodeState(params_, encoder);
}

Status WbmhDecayedSum::DecodeState(Decoder& decoder) {
  double epsilon = 0.0;
  int64_t start = 0;
  if (!decoder.GetDouble(&epsilon) || !decoder.GetSigned(&start)) {
    return CorruptSnapshot("WBMH header");
  }
  if (epsilon != layout_.epsilon() || start != layout_.start()) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  Status status = layout_.DecodeState(decoder);
  if (!status.ok()) return status;
  // count_epsilon is derived configuration: adopt the snapshot's value,
  // then decode the state under it.
  Decoder peek = decoder;
  double count_epsilon = 0.0;
  if (!peek.GetDouble(&count_epsilon)) {
    return CorruptSnapshot("WBMH counter header");
  }
  if (!WbmhParams::ValidateCountEpsilon(count_epsilon).ok()) {
    return CorruptSnapshot("WBMH counter count_epsilon");
  }
  params_ = WbmhParams(&layout_, count_epsilon);
  status = state_.DecodeState(params_, decoder);
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

}  // namespace tds
