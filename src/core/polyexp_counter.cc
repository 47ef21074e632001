#include "core/polyexp_counter.h"

#include <cmath>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"

namespace tds {
namespace {

PolyExpParams WithPascalRows(DecayPtr decay, int k, double lambda,
                             std::vector<double> query_coeffs) {
  PolyExpParams params{std::move(decay), k, lambda, std::move(query_coeffs),
                       {}};
  params.binomial.resize(k + 1);
  for (int j = 0; j <= k; ++j) {
    std::vector<double>& row = params.binomial[j];
    row.resize(j + 1);
    row[0] = row[j] = 1.0;
    for (int r = 1; r < j; ++r) {
      row[r] = params.binomial[j - 1][r - 1] + params.binomial[j - 1][r];
    }
  }
  return params;
}

}  // namespace

StatusOr<PolyExpParams> PolyExpState::MakeParams(DecayPtr decay,
                                                 const Options& /*options*/) {
  if (const auto* pe =
          dynamic_cast<const PolyExponentialDecay*>(decay.get())) {
    // Monomial x^k e^{-lambda x} / k!: the query polynomial is x^k / k!.
    std::vector<double> coeffs(pe->k() + 1, 0.0);
    double factorial = 1.0;
    for (int i = 2; i <= pe->k(); ++i) factorial *= i;
    coeffs.back() = 1.0 / factorial;
    const int k = pe->k();
    const double lambda = pe->lambda();
    return WithPascalRows(std::move(decay), k, lambda, std::move(coeffs));
  }
  if (const auto* gp =
          dynamic_cast<const GeneralPolyExpDecay*>(decay.get())) {
    const int k = gp->degree();
    const double lambda = gp->lambda();
    std::vector<double> coeffs = gp->coefficients();
    return WithPascalRows(std::move(decay), k, lambda, std::move(coeffs));
  }
  return Status::InvalidArgument(
      "PolyExpCounter requires PolyExponentialDecay or GeneralPolyExpDecay");
}

Status PolyExpParams::AuditInvariants() const {
  TDS_AUDIT_CHECK(k >= 0 && k < kMaxPolyExpRegisters,
                  "degree outside the register file");
  TDS_AUDIT_CHECK(query_coeffs.size() <= static_cast<size_t>(k) + 1,
                  "query polynomial degree exceeds k");
  TDS_AUDIT_CHECK(binomial.size() == static_cast<size_t>(k) + 1,
                  "Pascal triangle must have k+1 rows");
  for (int j = 0; j <= k; ++j) {
    TDS_AUDIT_CHECK(binomial[j].size() == static_cast<size_t>(j) + 1,
                    "Pascal row length mismatch");
    TDS_AUDIT_CHECK(binomial[j][0] == 1.0 && binomial[j][j] == 1.0,
                    "Pascal row edges must be 1");
    for (int r = 1; r < j; ++r) {
      TDS_AUDIT_CHECK(
          binomial[j][r] == binomial[j - 1][r - 1] + binomial[j - 1][r],
          "Pascal triangle recurrence violated");
    }
  }
  return Status::OK();
}

PolyExpState::Registers PolyExpState::RegistersAt(const PolyExpParams& params,
                                                  Tick t) const {
  TDS_CHECK_GE(t, now_);
  if (t == now_) return registers_;
  const double gap = static_cast<double>(t - now_);
  const double scale = std::exp(-params.lambda * gap);
  Registers next{};
  for (int j = params.k; j >= 0; --j) {
    double sum = 0.0;
    double gap_power = 1.0;  // gap^{j-r} for r = j down to 0
    for (int r = j; r >= 0; --r) {
      sum += params.binomial[j][r] * gap_power * registers_[r];
      gap_power *= gap;
    }
    next[j] = scale * sum;
  }
  return next;
}

void PolyExpState::AdvanceTo(const PolyExpParams& params, Tick t) {
  if (t == now_) return;  // skip RegistersAt's copy on the hot path
  registers_ = RegistersAt(params, t);
  now_ = t;
}

void PolyExpState::Update(const PolyExpParams& params, Tick t,
                          uint64_t value) {
  AdvanceTo(params, t);
  // A new item has age offset 0: only the j = 0 moment changes.
  registers_[0] += static_cast<double>(value);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void PolyExpState::UpdateBatch(const PolyExpParams& params,
                               std::span<const StreamItem> items) {
  // Fused same-tick path: one O(k^2) binomial gap jump per distinct tick;
  // within a tick every item is a bare M_0 add. The adds stay per-item and
  // in order, so the result is bit-identical to per-item ingestion.
  size_t i = 0;
  while (i < items.size()) {
    const Tick t = items[i].t;
    AdvanceTo(params, t);
    for (; i < items.size() && items[i].t == t; ++i) {
      registers_[0] += static_cast<double>(items[i].value);
    }
  }
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void PolyExpState::Advance(const PolyExpParams& params, Tick now) {
  AdvanceTo(params, now);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

Status PolyExpState::AuditInvariants(const PolyExpParams& params) const {
  TDS_AUDIT_CHECK(params.k >= 0 && params.k < kMaxPolyExpRegisters,
                  "degree outside the register file");
  for (int j = 0; j < kMaxPolyExpRegisters; ++j) {
    const double reg = registers_[j];
    if (j > params.k) {
      TDS_AUDIT_CHECK(reg == 0.0, "moment register past M_k");
      continue;
    }
    TDS_AUDIT_CHECK(std::isfinite(reg) && reg >= 0.0,
                    "moment register must be finite and nonnegative");
  }
  return Status::OK();
}

double PolyExpState::QueryPolynomial(const PolyExpParams& params,
                                     const std::vector<double>& coeffs,
                                     Tick now) const {
  TDS_CHECK_LE(coeffs.size(), static_cast<size_t>(params.k + 1));
  const Registers registers = RegistersAt(params, now);
  double total = 0.0;
  for (size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] == 0.0) continue;
    double moment_shifted = 0.0;  // sum_i f_i (age_i+1)^j e^{-lambda age_i}
    for (size_t r = 0; r <= j; ++r) {
      moment_shifted += params.binomial[j][r] * registers[r];
    }
    total += coeffs[j] * moment_shifted;
  }
  return std::exp(-params.lambda) * total;
}

void PolyExpState::EncodeState(const PolyExpParams& params,
                               Encoder& encoder) const {
  encoder.PutVarint(static_cast<uint64_t>(params.k));
  encoder.PutSigned(now_);
  for (int j = 0; j <= params.k; ++j) encoder.PutDouble(registers_[j]);
}

Status PolyExpState::DecodeState(const PolyExpParams& params,
                                 Decoder& decoder) {
  uint64_t k = 0;
  if (!decoder.GetVarint(&k) || !decoder.GetSigned(&now_)) {
    return CorruptSnapshot("PolyExp header");
  }
  if (k != static_cast<uint64_t>(params.k)) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  for (int j = 0; j <= params.k; ++j) {
    if (!decoder.GetDouble(&registers_[j])) {
      return CorruptSnapshot("PolyExp register");
    }
  }
  return RefuseUnaudited(AuditInvariants(params));
}

size_t PolyExpState::StorageBits(const PolyExpParams& params) const {
  // k+1 floating registers: 53-bit significands plus exponents sized like
  // the EWMA register (each register is an exponentially decayed quantity).
  const double binades =
      params.lambda * std::max<double>(1.0, static_cast<double>(now_)) /
          M_LN2 +
      64.0;
  const double per_register = 53.0 + std::ceil(std::log2(binades));
  return static_cast<size_t>(static_cast<double>(params.k + 1) *
                             per_register);
}

}  // namespace tds
