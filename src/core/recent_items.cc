#include "core/recent_items.h"

#include <cmath>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {

StatusOr<RecentItemsParams> RecentItemsState::MakeParams(
    DecayPtr decay, const Options& options) {
  const auto* expd = dynamic_cast<const ExponentialDecay*>(decay.get());
  if (expd == nullptr) {
    return Status::InvalidArgument(
        "RecentItemsExpCounter requires ExponentialDecay");
  }
  if (!(options.epsilon > 0.0) || options.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  const double lambda = expd->lambda();
  const double c = std::ceil(
      std::log(1.0 / ((1.0 - std::exp(-lambda)) * options.epsilon)) / lambda);
  return RecentItemsParams{std::move(decay), lambda,
                           static_cast<size_t>(std::max(1.0, c))};
}

StatusOr<RecentItemsParams> RecentItemsState::ReadParams(DecayPtr decay,
                                                         Decoder& payload) {
  uint64_t capacity = 0;
  if (!payload.GetVarint(&capacity) || capacity == 0) {
    return CorruptSnapshot("RecentItems capacity");
  }
  auto params = MakeParams(std::move(decay), Options());
  if (params.ok()) params->capacity = capacity;
  return params;
}

void RecentItemsState::Update(const RecentItemsParams& params, Tick t,
                              uint64_t value) {
  Block& b = block();
  TDS_CHECK_GE(t, b.now);
  b.now = t;
  if (value == 0) return;
  const double effective =
      static_cast<double>(t) +
      std::log(static_cast<double>(value)) / params.lambda;
  b.effective_times.insert(effective);
  while (b.effective_times.size() > params.capacity) {
    b.effective_times.erase(b.effective_times.begin());  // smallest = oldest
  }
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void RecentItemsState::UpdateBatch(const RecentItemsParams& params,
                                   std::span<const StreamItem> items) {
  for (const StreamItem& item : items) Update(params, item.t, item.value);
}

void RecentItemsState::Advance(
    [[maybe_unused]] const RecentItemsParams& params, Tick now) {
  Block& b = block();
  TDS_CHECK_GE(now, b.now);
  b.now = now;
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

Status RecentItemsState::AuditInvariants(
    const RecentItemsParams& params) const {
  TDS_AUDIT_CHECK(params.capacity >= 1, "capacity must be positive");
  if (!block_) return Status::OK();
  TDS_AUDIT_CHECK(block_->effective_times.size() <= params.capacity,
                  "retained more than C timestamps");
  for (double effective : block_->effective_times) {
    TDS_AUDIT_CHECK(std::isfinite(effective),
                    "non-finite effective timestamp");
  }
  return Status::OK();
}

double RecentItemsState::Query(const RecentItemsParams& params,
                               Tick now) const {
  TDS_CHECK_GE(now, this->now(params));
  if (!block_) return 0.0;
  double sum = 0.0;
  for (double effective : block_->effective_times) {
    sum += std::exp(-params.lambda *
                    (static_cast<double>(now) + 1.0 - effective));
  }
  return sum;
}

void RecentItemsState::EncodeState(const RecentItemsParams& params,
                                   Encoder& encoder) const {
  encoder.PutVarint(params.capacity);
  encoder.PutSigned(now(params));
  if (!block_) {
    encoder.PutVarint(0);
    return;
  }
  encoder.PutVarint(block_->effective_times.size());
  for (double effective : block_->effective_times) encoder.PutDouble(effective);
}

Status RecentItemsState::DecodeState(const RecentItemsParams& params,
                                     Decoder& decoder) {
  Block& b = block();
  uint64_t capacity = 0, size = 0;
  if (!decoder.GetVarint(&capacity) || !decoder.GetSigned(&b.now) ||
      !decoder.GetVarint(&size)) {
    return CorruptSnapshot("RecentItems header");
  }
  // A key kept at another C would answer with another accuracy bound (or
  // storage) than its owner claims.
  if (capacity != params.capacity) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  if (size > capacity) return CorruptSnapshot("RecentItems size");
  b.effective_times.clear();
  for (uint64_t i = 0; i < size; ++i) {
    double effective = 0.0;
    if (!decoder.GetDouble(&effective)) {
      return CorruptSnapshot("RecentItems entry");
    }
    b.effective_times.insert(effective);
  }
  return RefuseUnaudited(AuditInvariants(params));
}

size_t RecentItemsState::StorageBits(const RecentItemsParams& params) const {
  // C timestamps of ceil(log2(elapsed)) bits (value shifting adds the same
  // O(log(v_max)/lambda) additive range to each timestamp).
  const double elapsed =
      std::max<double>(2.0, static_cast<double>(now(params)));
  const double ts_bits = std::ceil(std::log2(elapsed + 1.0));
  const size_t retained = block_ ? block_->effective_times.size() : 0;
  return static_cast<size_t>((static_cast<double>(retained) + 1.0) * ts_bits);
}

}  // namespace tds
