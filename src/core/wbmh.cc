#include "core/wbmh.h"

#include <utility>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {

WbmhDecayedSum::WbmhDecayedSum(std::shared_ptr<WbmhLayout> layout,
                               const Options& options, bool owns_layout)
    : counter_(std::move(layout),
               WbmhCounter::Options{options.count_epsilon < 0.0
                                        ? options.epsilon
                                        : options.count_epsilon}),
      owns_layout_(owns_layout) {}

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
  WbmhLayout::Options layout_options;
  layout_options.decay = std::move(decay);
  layout_options.epsilon = options.epsilon;
  layout_options.start = options.start;
  auto layout = WbmhLayout::Create(layout_options);
  if (!layout.ok()) return layout.status();
  auto shared =
      std::make_shared<WbmhLayout>(std::move(layout).value());
  return std::unique_ptr<WbmhDecayedSum>(
      new WbmhDecayedSum(std::move(shared), options, /*owns_layout=*/true));
}

StatusOr<std::unique_ptr<WbmhDecayedSum>> WbmhDecayedSum::CreateShared(
    std::shared_ptr<WbmhLayout> layout, const Options& options) {
  if (layout == nullptr) {
    return Status::InvalidArgument("shared layout required");
  }
  return std::unique_ptr<WbmhDecayedSum>(
      new WbmhDecayedSum(std::move(layout), options, /*owns_layout=*/false));
}

void WbmhDecayedSum::Update(Tick t, uint64_t value) {
  counter_.Add(t, value);
  if (owns_layout_) counter_.layout()->TrimLog(counter_.AppliedSeq());
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhDecayedSum::UpdateBatch(std::span<const StreamItem> items) {
  counter_.AddBatch(items);
  if (owns_layout_) counter_.layout()->TrimLog(counter_.AppliedSeq());
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void WbmhDecayedSum::Advance(Tick now) {
  counter_.Advance(now);
  if (owns_layout_) counter_.layout()->TrimLog(counter_.AppliedSeq());
  TDS_AUDIT_MUTATION(AuditInvariants());
}

double WbmhDecayedSum::Query(Tick now) const {
  return counter_.Estimate(now);
}

Status WbmhDecayedSum::AuditInvariants() {
  Status status = counter_.layout()->AuditInvariants();
  if (!status.ok()) return status;
  return counter_.AuditInvariants();
}

Status WbmhDecayedSum::EncodeState(Encoder& encoder) {
  if (!owns_layout_) {
    return Status::FailedPrecondition(
        "shared-layout WBMH sums are snapshotted via their layout owner");
  }
  WbmhLayout& owned = *counter_.layout();
  counter_.Sync();
  owned.TrimLog(counter_.AppliedSeq());
  encoder.PutDouble(owned.epsilon());
  encoder.PutSigned(owned.start());
  Status status = owned.EncodeState(encoder);
  if (!status.ok()) return status;
  status = counter_.EncodeState(encoder);
  // Sync + TrimLog mutate the shared representation even though the
  // logical state is unchanged — audit them like any other mutation.
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

Status WbmhDecayedSum::DecodeState(Decoder& decoder) {
  if (!owns_layout_) {
    return Status::FailedPrecondition(
        "shared-layout WBMH sums are snapshotted via their layout owner");
  }
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

Status WbmhDecayedSum::EncodeCounterState(Encoder& encoder) {
  counter_.Sync();
  const Status status = counter_.EncodeState(encoder);
  if (status.ok()) TDS_AUDIT_MUTATION(counter_.AuditInvariants());
  return status;
}

Status WbmhDecayedSum::DecodeCounterState(Decoder& decoder) {
  const Status status = counter_.DecodeState(decoder);
  if (status.ok()) TDS_AUDIT_MUTATION(counter_.AuditInvariants());
  return status;
}

size_t WbmhDecayedSum::StorageBits() const {
  // Paper accounting: per-stream storage is the bucket counts only — the
  // boundary process is a deterministic function of (g, eps, T) and is
  // never stored per stream (Section 5).
  return counter_.StorageBits();
}

}  // namespace tds
