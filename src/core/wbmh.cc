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

StatusOr<std::unique_ptr<WbmhDecayedSum>> WbmhDecayedSum::Create(
    DecayPtr decay, const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  if (options.require_admissible && !decay->IsWbmhAdmissible()) {
    return Status::FailedPrecondition(
        "decay function fails the WBMH admissibility test "
        "(g(x)/g(x+1) must be non-increasing); use CEH instead or set "
        "require_admissible = false");
  }
  const double count_epsilon =
      options.count_epsilon < 0.0 ? options.epsilon : options.count_epsilon;
  // The option itself (-inf would otherwise pass as "tie") and the value
  // it resolves to must both name a mantissa width.
  for (const double value : {options.count_epsilon, count_epsilon}) {
    const Status valid = WbmhParams::ValidateCountEpsilon(value);
    if (!valid.ok()) return valid;
  }
  WbmhLayout::Options layout_options;
  layout_options.decay = std::move(decay);
  layout_options.epsilon = options.epsilon;
  layout_options.start = options.start;
  auto layout = WbmhLayout::Create(layout_options);
  if (!layout.ok()) return layout.status();
  return std::unique_ptr<WbmhDecayedSum>(
      new WbmhDecayedSum(std::move(layout).value(), count_epsilon));
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
  status = WbmhCounter::DecodeAdopting(params_, state_, decoder);
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

}  // namespace tds
