#include "core/ewma.h"

#include <cmath>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/rounded_counter.h"

namespace tds {

StatusOr<EwmaParams> EwmaState::MakeParams(DecayPtr decay,
                                           const Options& options) {
  const auto* expd = dynamic_cast<const ExponentialDecay*>(decay.get());
  if (expd == nullptr) {
    return Status::InvalidArgument("EwmaCounter requires ExponentialDecay");
  }
  if (options.mantissa_bits < 0) {
    return Status::InvalidArgument("mantissa_bits must be >= 0");
  }
  const double lambda = expd->lambda();
  return EwmaParams{std::move(decay), lambda, options.mantissa_bits};
}

StatusOr<EwmaParams> EwmaState::ReadParams(DecayPtr decay, Decoder& payload) {
  uint64_t mantissa = 0;
  if (!payload.GetVarint(&mantissa)) return CorruptSnapshot("EWMA options");
  // A width past int truncates here, then fails MakeParams (negative) or
  // DecodeState, which compares the field whole.
  return MakeParams(std::move(decay), Options{static_cast<int>(mantissa)});
}

void EwmaState::AdvanceTo(const EwmaParams& params, Tick t) {
  TDS_CHECK_GE(t, now_);
  if (t != now_ && register_ != 0.0) {
    register_ *= std::exp(-params.lambda * static_cast<double>(t - now_));
    register_ = RoundValue(register_, params.mantissa_bits);
  }
  now_ = t;
}

void EwmaState::Add(const EwmaParams& params, Tick t, uint64_t value) {
  if (value == 0) return;
  if (first_arrival_ == 0) first_arrival_ = t;
  register_ += static_cast<double>(value);
  register_ = RoundValue(register_, params.mantissa_bits);
  if (register_ > max_register_) max_register_ = register_;
}

void EwmaState::Update(const EwmaParams& params, Tick t, uint64_t value) {
  AdvanceTo(params, t);
  if (value == 0) return;
  Add(params, t, value);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void EwmaState::UpdateBatch(const EwmaParams& params,
                            std::span<const StreamItem> items) {
  // Fused same-tick path: one gap-decay multiply per distinct tick instead
  // of one AdvanceTo check per item. The adds stay strictly per-item — each
  // with its own post-add re-round — because (a + b) re-rounded once is not
  // the same double as two rounded adds, and the batch path must be
  // bit-identical to per-item ingestion.
  size_t i = 0;
  while (i < items.size()) {
    const Tick t = items[i].t;
    AdvanceTo(params, t);
    for (; i < items.size() && items[i].t == t; ++i) {
      Add(params, t, items[i].value);
    }
  }
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void EwmaState::Advance(const EwmaParams& params, Tick now) {
  AdvanceTo(params, now);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

Status EwmaState::AuditInvariants(const EwmaParams& params) const {
  TDS_AUDIT_CHECK(std::isfinite(register_) && register_ >= 0.0,
                  "register must be finite and nonnegative");
  TDS_AUDIT_CHECK(std::isfinite(max_register_) && max_register_ >= 0.0,
                  "max register must be finite and nonnegative");
  TDS_AUDIT_CHECK(register_ <= max_register_ || register_ == 0.0,
                  "register exceeds its running maximum");
  TDS_AUDIT_CHECK(first_arrival_ >= 0, "negative first arrival");
  TDS_AUDIT_CHECK(first_arrival_ == 0 || first_arrival_ <= now_,
                  "first arrival past the clock");
  if (params.mantissa_bits > 0) {
    TDS_AUDIT_CHECK(
        RoundValue(register_, params.mantissa_bits) == register_,
        "register not a fixed point of its mantissa rounding");
  }
  return Status::OK();
}

double EwmaState::Query(const EwmaParams& params, Tick now) const {
  TDS_CHECK_GE(now, now_);
  // Same arithmetic as Advance(now) followed by a read — including the
  // post-decay re-round — but on a local copy of the register.
  double reg = register_;
  if (now != now_ && reg != 0.0) {
    reg *= std::exp(-params.lambda * static_cast<double>(now - now_));
    reg = RoundValue(reg, params.mantissa_bits);
  }
  return reg * std::exp(-params.lambda);
}

void EwmaState::EncodeState(const EwmaParams& params,
                            Encoder& encoder) const {
  encoder.PutVarint(static_cast<uint64_t>(params.mantissa_bits));
  encoder.PutDouble(register_);
  encoder.PutDouble(max_register_);
  encoder.PutSigned(now_);
  encoder.PutSigned(first_arrival_);
}

Status EwmaState::DecodeState(const EwmaParams& params, Decoder& decoder) {
  uint64_t mantissa = 0;
  if (!decoder.GetVarint(&mantissa) || !decoder.GetDouble(&register_) ||
      !decoder.GetDouble(&max_register_) || !decoder.GetSigned(&now_) ||
      !decoder.GetSigned(&first_arrival_)) {
    return CorruptSnapshot("EWMA state");
  }
  if (mantissa != static_cast<uint64_t>(params.mantissa_bits)) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  return RefuseUnaudited(AuditInvariants(params));
}

size_t EwmaState::StorageBits(const EwmaParams& params) const {
  // Significand plus an exponent wide enough for the register's dynamic
  // range: values shrink by e^{-lambda} per tick, so over N elapsed ticks
  // the exponent spans ~lambda*N/ln2 + log2(max value) binades — the
  // Theta(log N) of Lemma 3.1 comes from storing *which* binade.
  const int significand =
      params.mantissa_bits > 0 ? params.mantissa_bits : 53;
  const Tick elapsed =
      first_arrival_ == 0 ? 1 : std::max<Tick>(now_ - first_arrival_ + 1, 1);
  const double binades = params.lambda * static_cast<double>(elapsed) / M_LN2 +
                         std::log2(std::max(max_register_, 2.0)) + 2.0;
  return static_cast<size_t>(significand + std::ceil(std::log2(binades)));
}

}  // namespace tds
