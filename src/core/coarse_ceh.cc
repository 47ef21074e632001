#include "core/coarse_ceh.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/audit.h"
#include "util/check.h"

namespace tds {

StatusOr<CoarseCehParams> CoarseCehState::MakeParams(DecayPtr decay,
                                                     const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  const uint64_t cap = ClassBudget(options.epsilon);
  if (cap == 0) {
    return Status::InvalidArgument(
        "epsilon must be in (0, 1] with a per-class budget ceil(1/epsilon) "
        "+ 1 of at most " +
        std::to_string(kMaxClassBudget));
  }
  if (!(options.boundary_delta > 0.0)) {
    return Status::InvalidArgument("boundary_delta must be > 0");
  }
  return CoarseCehParams{options, std::move(decay), cap};
}

StatusOr<CoarseCehParams> CoarseCehState::ReadParams(DecayPtr decay,
                                                     Decoder& payload) {
  Options options;
  if (!payload.GetDouble(&options.epsilon) ||
      !payload.GetDouble(&options.boundary_delta)) {
    return CorruptSnapshot("CoarseCEH options");
  }
  return MakeParams(std::move(decay), options);
}

void CoarseCehState::AdvanceTo(const CoarseCehParams& params, Tick t) {
  TDS_CHECK_GE(t, now_);
  const Tick gap = t - now_;
  now_ = t;
  if (gap == 0) return;
  // The shared RNG is consumed in ascending class order, each class oldest
  // first. That order is part of the state: the RNG words are snapshotted,
  // so a resumed structure must age its buckets in the same sequence.
  store_.ForEachSegmentAscendingClass(
      [this, gap](size_t, const auto& segment) {
        for (size_t k = 0; k < segment.size(); ++k) {
          ApproxAge& age = segment[k];
          age.Advance(gap, rng_);
          max_age_seen_ = std::max(max_age_seen_, age.Estimate());
        }
      });
  Expire(params);
}

void CoarseCehState::Update(const CoarseCehParams& params, Tick t,
                            uint64_t value) {
  AdvanceTo(params, t);
  if (value == 0) return;
  total_count_ += value;
  // The EH's unit insertion (EhState::Add), with approximate ages in place
  // of timestamps: every incoming bucket is brand new (age 1), and a merge
  // keeps the *younger* boundary.
  store_.InsertUnits(value, ApproxAge(params.boundary_delta), params.cap,
                     [](const ApproxAge& older, const ApproxAge& newer) {
                       ApproxAge merged = older;
                       merged.TakeYounger(newer);
                       return merged;
                     });
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void CoarseCehState::UpdateBatch(const CoarseCehParams& params,
                                 std::span<const StreamItem> items) {
  for (const StreamItem& item : items) Update(params, item.t, item.value);
}

void CoarseCehState::Expire(const CoarseCehParams& params) {
  const Tick horizon = params.decay->Horizon();
  if (horizon == kInfiniteHorizon || total_count_ == 0) return;
  const double horizon_age = static_cast<double>(horizon);
  total_count_ -= store_.ExpireOldest([horizon_age](const ApproxAge& age) {
    return age.Estimate() > horizon_age;
  });
}

void CoarseCehState::Advance(const CoarseCehParams& params, Tick now) {
  AdvanceTo(params, now);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

Status CoarseCehState::AuditInvariants(const CoarseCehParams& params) const {
  const uint64_t cap = params.cap;
  TDS_AUDIT_CHECK(now_ >= 0, "negative clock");
  TDS_AUDIT_CHECK(std::isfinite(max_age_seen_) && max_age_seen_ >= 1.0,
                  "max age must be finite and >= 1");
  TDS_AUDIT_CHECK(cap != 0 && cap == ClassBudget(params.epsilon),
                  "per-class budget must be ceil(1/eps) + 1, at most " +
                      std::to_string(kMaxClassBudget));
  const Status store = store_.AuditInvariants();
  if (!store.ok()) return store;
  for (size_t c = 0; c < store_.num_classes(); ++c) {
    TDS_AUDIT_CHECK(store_.class_size(c) <= 2 * cap + 2,
                    "class exceeds cap bound");
  }
  uint64_t checksum = 0;
  const char* violation = nullptr;
  store_.ForEachOldestFirst([&](const ApproxAge& boundary, uint64_t count) {
    if (violation != nullptr) return;
    const double age = boundary.Estimate();
    if (!(std::isfinite(age) && age >= 1.0)) {
      violation = "boundary age must be finite and >= 1";
    } else if (age > max_age_seen_) {
      violation = "boundary age past the recorded maximum";
    } else if (__builtin_add_overflow(checksum, count, &checksum)) {
      // A hostile snapshot can hold counts whose sum wraps back to a
      // plausible total; an overflowing sum is itself a violation.
      violation = "bucket counts overflow the total";
    }
  });
  TDS_AUDIT_CHECK(violation == nullptr, violation);
  TDS_AUDIT_CHECK(checksum == total_count_,
                  "bucket counts do not sum to the total");
  return Status::OK();
}

double CoarseCehState::Query(const CoarseCehParams& params, Tick now) const {
  TDS_CHECK_GE(now, now_);
  const double gap = static_cast<double>(now - now_);
  const DecayFunction& decay = *params.decay;
  const Tick horizon = decay.Horizon();
  double sum = 0.0;
  // Summed in ascending class order: a fixed floating-point summation
  // order, so a decoded copy answers bit-identically to its source.
  store_.ForEachSegmentAscendingClass([&](size_t c, const auto& segment) {
    const auto count = static_cast<double>(uint64_t{1} << c);
    for (size_t k = 0; k < segment.size(); ++k) {
      const double age_estimate =
          std::max(1.0, segment[k].Estimate() + gap);
      const auto age = static_cast<Tick>(std::llround(age_estimate));
      if (age > horizon) continue;
      sum += count * decay.Weight(age);
    }
  });
  return sum;
}

std::vector<double> CoarseCehState::BoundaryAges() const {
  std::vector<double> ages;
  ages.reserve(store_.size());
  store_.ForEachOldestFirst([&ages](const ApproxAge& age, uint64_t) {
    ages.push_back(age.Estimate());
  });
  return ages;
}

void CoarseCehState::EncodeState(const CoarseCehParams& params,
                                 Encoder& encoder) const {
  encoder.PutDouble(params.epsilon);
  encoder.PutDouble(params.boundary_delta);
  encoder.PutSigned(now_);
  encoder.PutVarint(total_count_);
  encoder.PutDouble(max_age_seen_);
  uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (uint64_t word : rng_state) encoder.PutVarint(word);
  // Wire order: every class, emptied ones included, in ascending class
  // order; each class's buckets oldest first.
  encoder.PutVarint(store_.num_classes());
  store_.ForEachSegmentAscendingClass(
      [&encoder](size_t c, const auto& segment) {
        encoder.PutVarint(segment.size());
        for (size_t k = 0; k < segment.size(); ++k) {
          segment[k].EncodeTo(encoder);
          encoder.PutVarint(uint64_t{1} << c);
        }
      });
}

Status CoarseCehState::DecodeState(const CoarseCehParams& params,
                                   Decoder& decoder) {
  double epsilon = 0.0, delta = 0.0;
  if (!decoder.GetDouble(&epsilon) || !decoder.GetDouble(&delta)) {
    return CorruptSnapshot("CoarseCEH header");
  }
  if (epsilon != params.epsilon || delta != params.boundary_delta) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  uint64_t total = 0, class_count = 0;
  if (!decoder.GetSigned(&now_) || !decoder.GetVarint(&total) ||
      !decoder.GetDouble(&max_age_seen_)) {
    return CorruptSnapshot("CoarseCEH clock");
  }
  uint64_t rng_state[4];
  for (uint64_t& word : rng_state) {
    if (!decoder.GetVarint(&word)) return CorruptSnapshot("CoarseCEH rng");
  }
  rng_.RestoreState(rng_state);
  if (!decoder.GetVarint(&class_count) || class_count > 64) {
    return CorruptSnapshot("CoarseCEH classes");
  }
  if (now_ < 0 || !std::isfinite(max_age_seen_)) {
    return CorruptSnapshot("CoarseCEH clock");
  }
  total_count_ = total;
  // The store keeps no counts: a class-c bucket holds 2^c units.
  const char* corrupt = nullptr;
  const bool parsed = store_.AssignFromAscendingClasses(
      class_count, [&](size_t c, std::vector<ApproxAge>& out) {
        uint64_t buckets = 0;
        // cap <= kMaxClassBudget, so the bound cannot overflow and any
        // class it admits fits the store's counter.
        if (!decoder.GetVarint(&buckets) || buckets > 2 * params.cap + 2) {
          corrupt = "CoarseCEH class";
          return false;
        }
        for (uint64_t i = 0; i < buckets; ++i) {
          ApproxAge age;
          uint64_t count = 0;
          if (!age.DecodeFrom(decoder) || !decoder.GetVarint(&count) ||
              count != uint64_t{1} << c) {
            corrupt = "CoarseCEH bucket";
            return false;
          }
          out.push_back(age);
        }
        return true;
      });
  if (!parsed) return CorruptSnapshot(corrupt);
  // Hostile-snapshot funnel: reject blobs whose state fails the audit,
  // including bucket counts that do not sum to the total.
  return RefuseUnaudited(AuditInvariants(params));
}

size_t CoarseCehState::StorageBits(const CoarseCehParams& params) const {
  // Per bucket: an O(log log N) boundary plus a count exponent (counts are
  // powers of two). One exact clock register is charged once.
  const int age_bits =
      ApproxAge::StorageBits(params.boundary_delta, max_age_seen_);
  const double count_log =
      std::log2(static_cast<double>(std::max<uint64_t>(total_count_, 2)));
  const int exp_bits =
      static_cast<int>(std::ceil(std::log2(count_log + 1.0)));
  const double clock_bits = std::ceil(
      std::log2(static_cast<double>(std::max<Tick>(now_, 2)) + 1.0));
  return static_cast<size_t>(
      static_cast<double>(store_.size()) * (age_bits + exp_bits) +
      clock_bits);
}

}  // namespace tds
