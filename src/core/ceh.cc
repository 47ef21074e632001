#include "core/ceh.h"

#include <vector>

#include "util/audit.h"
#include "util/check.h"

namespace tds {

CehDecayedSum::CehDecayedSum(DecayPtr decay, ExponentialHistogram eh)
    : eh_(std::move(eh)), decay_(std::move(decay)) {}

StatusOr<std::unique_ptr<CehDecayedSum>> CehDecayedSum::Create(
    DecayPtr decay, const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  ExponentialHistogram::Options eh_options;
  eh_options.epsilon = options.epsilon;
  eh_options.window = decay->Horizon();  // N(g); infinite keeps everything
  auto eh = ExponentialHistogram::Create(eh_options);
  if (!eh.ok()) return eh.status();
  return std::unique_ptr<CehDecayedSum>(
      new CehDecayedSum(std::move(decay), std::move(eh).value()));
}

void CehDecayedSum::Update(Tick t, uint64_t value) {
  eh_.Add(t, value);
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void CehDecayedSum::UpdateBatch(std::span<const StreamItem> items) {
  // Coalesce runs of equal ticks into one Add: InsertUnits' sequential-
  // insertion semantics make Add(t, a + b) identical to Add(t, a); Add(t, b),
  // so the cascade fires once per distinct tick, not once per item.
  size_t i = 0;
  while (i < items.size()) {
    const Tick t = items[i].t;
    uint64_t total = 0;
    for (; i < items.size() && items[i].t == t; ++i) total += items[i].value;
    eh_.Add(t, total);
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void CehDecayedSum::Advance(Tick now) {
  eh_.AdvanceTo(now);
  TDS_AUDIT_MUTATION(AuditInvariants());
}

Status CehDecayedSum::DecodeState(Decoder& decoder) {
  Status status = eh_.DecodeState(decoder);
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants());
  return status;
}

Status CehDecayedSum::AuditInvariants() const { return eh_.AuditInvariants(); }

double CehDecayedSum::SafeWeight(Tick age) const {
  if (age < 1) age = 1;
  if (age > decay_->Horizon()) return 0.0;
  return decay_->Weight(age);
}

double CehDecayedSum::Query(Tick now) const {
  if (eh_.Empty()) return 0.0;
  // Walk buckets oldest -> newest; each bucket's trapezoid partner is the
  // end-age of its older neighbor (Eq. 4 telescoped; see class comment).
  // Buckets past the horizon take SafeWeight == 0, so the unswept tail a
  // const query cannot expire contributes nothing.
  double sum = 0.0;
  Tick older_age;  // end-age of the previous (older) bucket
  const Tick first_age = AgeAt(eh_.first_arrival(), now);
  if (decay_->Horizon() != kInfiniteHorizon &&
      first_age > decay_->Horizon()) {
    older_age = decay_->Horizon() + 1;  // oldest items expired: weight 0
  } else {
    older_age = first_age;
  }
  eh_.ForEachBucketOldestFirst([&](const ExponentialHistogram::Bucket& b) {
    const Tick age = AgeAt(b.end, now);
    // Size-1 buckets pin their single item at the stored timestamp, so they
    // take the exact weight; larger buckets take the telescoped trapezoid
    // (the EH's half-count straddling rule summed across window sizes).
    const double w = b.count == 1
                         ? SafeWeight(age)
                         : (SafeWeight(age) + SafeWeight(older_age)) / 2.0;
    sum += static_cast<double>(b.count) * w;
    older_age = age;
  });
  return sum;
}

size_t CehDecayedSum::StorageBits() const { return eh_.StorageBits(); }

}  // namespace tds
