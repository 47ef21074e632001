#include "core/ceh.h"

#include <utility>

#include "util/audit.h"
#include "util/check.h"

namespace tds {
namespace {

/// g(age) with ages clamped to >= 1 and weight 0 past the horizon.
double SafeWeight(const DecayFunction& decay, Tick age) {
  if (age < 1) age = 1;
  if (age > decay.Horizon()) return 0.0;
  return decay.Weight(age);
}

}  // namespace

StatusOr<CehParams> CehState::MakeParams(DecayPtr decay,
                                         const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  // N(g) is the window; an infinite horizon keeps everything.
  auto eh = EhParams::Create(options.epsilon, decay->Horizon());
  if (!eh.ok()) return eh.status();
  return CehParams{eh.value(), std::move(decay)};
}

StatusOr<CehParams> CehState::ReadParams(DecayPtr decay, Decoder& payload) {
  Options options;
  if (!payload.GetDouble(&options.epsilon)) {
    return CorruptSnapshot("CEH options");
  }
  return MakeParams(std::move(decay), options);
}

Status MergeFrom(CehDecayedSum& into, const CehDecayedSum& other) {
  if (other.params().eh != into.params().eh) {
    return Status::InvalidArgument(
        "cannot merge histograms with different options");
  }
  const Status status =
      into.state().eh_.MergeFrom(into.params().eh, other.state().eh_);
  if (status.ok()) TDS_AUDIT_MUTATION(into.AuditInvariants());
  return status;
}

void CehState::Update(const CehParams& params, Tick t, uint64_t value) {
  eh_.Add(params.eh, t, value);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void CehState::UpdateBatch(const CehParams& params,
                           std::span<const StreamItem> items) {
  // Coalesce runs of equal ticks into one Add: the store's sequential-
  // insertion semantics make Add(t, a + b) identical to Add(t, a); Add(t, b),
  // so the cascade fires once per distinct tick, not once per item.
  size_t i = 0;
  while (i < items.size()) {
    const Tick t = items[i].t;
    uint64_t total = 0;
    for (; i < items.size() && items[i].t == t; ++i) total += items[i].value;
    eh_.Add(params.eh, t, total);
  }
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void CehState::Advance(const CehParams& params, Tick now) {
  eh_.AdvanceTo(params.eh, now);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

Status CehState::DecodeState(const CehParams& params, Decoder& decoder) {
  Status status = eh_.DecodeState(params.eh, decoder);
  if (status.ok()) TDS_AUDIT_MUTATION(AuditInvariants(params));
  return status;
}

double CehState::Query(const CehParams& params, Tick now) const {
  if (eh_.Empty()) return 0.0;
  const DecayFunction& decay = *params.decay;
  // Walk buckets oldest -> newest; each bucket's trapezoid partner is the
  // end-age of its older neighbor (Eq. 4 telescoped; see the class comment).
  // Buckets past the horizon take SafeWeight == 0, so the unswept tail a
  // const query cannot expire contributes nothing.
  double sum = 0.0;
  Tick older_age;  // end-age of the previous (older) bucket
  const Tick first_age = AgeAt(eh_.first_arrival(), now);
  if (decay.Horizon() != kInfiniteHorizon && first_age > decay.Horizon()) {
    older_age = decay.Horizon() + 1;  // oldest items expired: weight 0
  } else {
    older_age = first_age;
  }
  eh_.ForEachBucketOldestFirst([&](const EhBucket& b) {
    const Tick age = AgeAt(b.end, now);
    // Size-1 buckets pin their single item at the stored timestamp, so they
    // take the exact weight; larger buckets take the telescoped trapezoid
    // (the EH's half-count straddling rule summed across window sizes).
    const double w =
        b.count == 1
            ? SafeWeight(decay, age)
            : (SafeWeight(decay, age) + SafeWeight(decay, older_age)) / 2.0;
    sum += static_cast<double>(b.count) * w;
    older_age = age;
  });
  return sum;
}

}  // namespace tds
