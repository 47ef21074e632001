#include "core/exact.h"

#include <cmath>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {

StatusOr<ExactParams> ExactState::MakeParams(DecayPtr decay,
                                             const Options& /*options*/) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  return ExactParams{std::move(decay)};
}

void ExactState::Prune(const ExactParams& params) {
  const Tick horizon = params.decay->Horizon();
  if (horizon == kInfiniteHorizon || !block_) return;
  std::deque<Entry>& items = block_->items;
  while (!items.empty() && AgeAt(items.front().t, block_->now) > horizon) {
    items.pop_front();
  }
}

void ExactState::Update(const ExactParams& params, Tick t, uint64_t value) {
  Block& b = block();
  TDS_CHECK_GE(t, b.now);
  b.now = t;
  // Prune even when value == 0: a zero-value update still advances the
  // clock, and entries past the horizon must not outlive it (the audit's
  // horizon invariant; an early return here once leaked expired entries
  // until the next non-zero update).
  if (value != 0) {
    if (!b.items.empty() && b.items.back().t == t) {
      b.items.back().value += value;
    } else {
      b.items.push_back(Entry{t, value});
    }
  }
  Prune(params);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void ExactState::UpdateBatch(const ExactParams& params,
                             std::span<const StreamItem> items) {
  for (const StreamItem& item : items) Update(params, item.t, item.value);
}

void ExactState::Advance(const ExactParams& params, Tick now) {
  Block& b = block();
  TDS_CHECK_GE(now, b.now);
  b.now = now;
  Prune(params);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

Status ExactState::AuditInvariants(const ExactParams& params) const {
  if (!block_) return Status::OK();
  Tick previous = -1;
  bool first = true;
  const Tick horizon = params.decay->Horizon();
  for (const Entry& entry : block_->items) {
    TDS_AUDIT_CHECK(first || entry.t > previous, "item ticks not increasing");
    TDS_AUDIT_CHECK(entry.t <= block_->now, "item tick past the clock");
    TDS_AUDIT_CHECK(entry.value > 0, "zero-value item retained");
    previous = entry.t;
    first = false;
  }
  if (horizon != kInfiniteHorizon && !block_->items.empty()) {
    TDS_AUDIT_CHECK(AgeAt(block_->items.front().t, block_->now) <= horizon,
                    "item retained past the decay horizon");
  }
  return Status::OK();
}

double ExactState::Query(const ExactParams& params, Tick now) const {
  TDS_CHECK_GE(now, this->now(params));
  if (!block_) return 0.0;
  const DecayFunction& decay = *params.decay;
  double sum = 0.0;
  const Tick horizon = decay.Horizon();
  for (const Entry& e : block_->items) {
    const Tick age = AgeAt(e.t, now);
    if (horizon != kInfiniteHorizon && age > horizon) continue;
    sum += static_cast<double>(e.value) * decay.Weight(age);
  }
  return sum;
}

void ExactState::EncodeState(const ExactParams& params,
                             Encoder& encoder) const {
  encoder.PutSigned(now(params));
  encoder.PutVarint(ItemCount());
  if (!block_) return;
  Tick previous = 0;
  for (const Entry& entry : block_->items) {
    encoder.PutVarint(static_cast<uint64_t>(entry.t - previous));
    previous = entry.t;
    encoder.PutVarint(entry.value);
  }
}

Status ExactState::DecodeState(const ExactParams& params, Decoder& decoder) {
  Block& b = block();
  uint64_t size = 0;
  if (!decoder.GetSigned(&b.now) || !decoder.GetVarint(&size)) {
    return CorruptSnapshot("Exact header");
  }
  b.items.clear();
  Tick previous = 0;
  for (uint64_t i = 0; i < size; ++i) {
    uint64_t delta = 0, value = 0;
    if (!decoder.GetVarint(&delta) || !decoder.GetVarint(&value)) {
      return CorruptSnapshot("Exact entry");
    }
    previous += static_cast<Tick>(delta);
    b.items.push_back(Entry{previous, value});
  }
  // Hostile-snapshot funnel: structural validation IS the audit protocol,
  // so a corrupt blob is rejected instead of installed.
  return RefuseUnaudited(AuditInvariants(params));
}

size_t ExactState::StorageBits(const ExactParams& params) const {
  // Each entry: a timestamp plus an exact count.
  const Tick now = this->now(params);
  const size_t count = ItemCount();
  const Tick elapsed = count == 0 ? 1 : now - block_->items.front().t + 1;
  const double ts_bits =
      std::ceil(std::log2(static_cast<double>(std::max<Tick>(elapsed, 2)) + 1));
  double bits = ts_bits;  // clock register
  if (count == 0) return static_cast<size_t>(bits);
  for (const Entry& e : block_->items) {
    bits += ts_bits +
            std::ceil(std::log2(static_cast<double>(e.value) + 1.0));
  }
  return static_cast<size_t>(bits);
}

}  // namespace tds
