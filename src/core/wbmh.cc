#include "core/wbmh.h"

#include <utility>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {

WbmhDecayedSum::WbmhDecayedSum(std::shared_ptr<WbmhLayout> layout,
                               double count_epsilon)
    : counter_(std::move(layout), WbmhCounter::Options{count_epsilon}) {}

WbmhDecayedSum::WbmhDecayedSum(const WbmhDecayedSum& other)
    : counter_(other.counter_) {
  // The counter is synced after every mutation, so it may rebind.
  counter_.RebindLayout(std::make_shared<WbmhLayout>(other.layout()));
}

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
    const Status valid = WbmhCounter::ValidateCountEpsilon(value);
    if (!valid.ok()) return valid;
  }
  WbmhLayout::Options layout_options;
  layout_options.decay = std::move(decay);
  layout_options.epsilon = options.epsilon;
  layout_options.start = options.start;
  auto layout = WbmhLayout::Create(layout_options);
  if (!layout.ok()) return layout.status();
  return std::unique_ptr<WbmhDecayedSum>(new WbmhDecayedSum(
      std::make_shared<WbmhLayout>(std::move(layout).value()),
      count_epsilon));
}

void WbmhDecayedSum::TrimLog() {
  counter_.layout()->TrimLog(counter_.AppliedSeq());
}

void WbmhDecayedSum::Update(Tick t, uint64_t value) {
  counter_.Update(t, value);
  TrimLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhDecayedSum::UpdateBatch(std::span<const StreamItem> items) {
  counter_.UpdateBatch(items);
  TrimLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhDecayedSum::Advance(Tick now) {
  counter_.Advance(now);
  TrimLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

double WbmhDecayedSum::Query(Tick now) const { return counter_.Query(now); }

Status WbmhDecayedSum::AuditInvariants() {
  Status status = counter_.layout()->AuditInvariants();
  if (!status.ok()) return status;
  return counter_.AuditInvariants();
}

Status WbmhDecayedSum::EncodeState(Encoder& encoder) const {
  // Every mutation trims the log, so the counter is synced and the layout
  // carries no log here.
  const WbmhLayout& owned = layout();
  encoder.PutDouble(owned.epsilon());
  encoder.PutSigned(owned.start());
  Status status = owned.EncodeState(encoder);
  if (!status.ok()) return status;
  return counter_.EncodeState(encoder);
}

Status WbmhDecayedSum::DecodeState(Decoder& decoder) {
  double epsilon = 0.0;
  int64_t start = 0;
  if (!decoder.GetDouble(&epsilon) || !decoder.GetSigned(&start)) {
    return CorruptSnapshot("WBMH header");
  }
  WbmhLayout& owned = *counter_.layout();
  if (epsilon != owned.epsilon() || start != owned.start()) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  Status status = owned.DecodeState(decoder);
  if (!status.ok()) return status;
  status = counter_.DecodeState(decoder);
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

size_t WbmhDecayedSum::StorageBits() const {
  // Paper accounting: per-stream storage is the bucket counts only — the
  // boundary process is a deterministic function of (g, eps, T) and is
  // never stored per stream (Section 5).
  return counter_.StorageBits();
}

}  // namespace tds
