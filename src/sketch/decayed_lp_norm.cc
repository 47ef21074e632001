#include "sketch/decayed_lp_norm.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {

DecayedLpNorm::DecayedLpNorm(const Options& options, StableSampler sampler,
                             CehParams ceh)
    : options_(options),
      sampler_(std::move(sampler)),
      ceh_(std::move(ceh)),
      pos_(options.rows),
      neg_(options.rows) {}

StatusOr<DecayedLpNorm> DecayedLpNorm::Create(DecayPtr decay,
                                              const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  if (options.rows < 1) return Status::InvalidArgument("rows must be >= 1");
  if (!(options.quantization > 0.0)) {
    return Status::InvalidArgument("quantization must be > 0");
  }
  auto sampler = StableSampler::Create(options.p);
  if (!sampler.ok()) return sampler.status();
  auto ceh = CehState::MakeParams(std::move(decay),
                                  CehState::Options{options.epsilon});
  if (!ceh.ok()) return ceh.status();
  return DecayedLpNorm(options, std::move(sampler).value(),
                       std::move(ceh).value());
}

double DecayedLpNorm::ProjectionEntry(int row, uint64_t coord) const {
  const uint64_t key =
      HashCombine(options_.seed, static_cast<uint64_t>(row), coord);
  const double u1 = HashedUniform(key, 1);
  const double u2 = HashedUniform(key, 2);
  return sampler_.FromUniforms(u1, u2);
}

void DecayedLpNorm::Update(Tick t, uint64_t coord, uint64_t amount) {
  if (amount == 0) return;
  for (int row = 0; row < rows(); ++row) {
    const double projected = static_cast<double>(amount) *
                             ProjectionEntry(row, coord) *
                             options_.quantization;
    const auto magnitude =
        static_cast<uint64_t>(std::llround(std::fabs(projected)));
    if (magnitude == 0) continue;
    if (projected >= 0.0) {
      pos_[row].Update(ceh_, t, magnitude);
      neg_[row].Update(ceh_, t, 0);  // keep clocks aligned
    } else {
      neg_[row].Update(ceh_, t, magnitude);
      pos_[row].Update(ceh_, t, 0);
    }
  }
}

double DecayedLpNorm::Query(Tick now) {
  std::vector<double> magnitudes;
  magnitudes.reserve(pos_.size());
  for (int row = 0; row < rows(); ++row) {
    const double value =
        (pos_[row].Query(ceh_, now) - neg_[row].Query(ceh_, now)) /
        options_.quantization;
    magnitudes.push_back(std::fabs(value));
  }
  // Median of the row magnitudes; average the two central order statistics
  // when the row count is even (taking just the upper one biases the
  // estimate upward).
  auto mid = magnitudes.begin() + magnitudes.size() / 2;
  std::nth_element(magnitudes.begin(), mid, magnitudes.end());
  double median = *mid;
  if (magnitudes.size() % 2 == 0) {
    const double lower =
        *std::max_element(magnitudes.begin(), mid);
    median = (median + lower) / 2.0;
  }
  return median / sampler_.MedianAbs();
}

void DecayedLpNorm::EncodeState(Encoder& encoder) const {
  encoder.PutDouble(options_.p);
  encoder.PutVarint(static_cast<uint64_t>(options_.rows));
  encoder.PutDouble(options_.epsilon);
  encoder.PutDouble(options_.quantization);
  encoder.PutVarint(options_.seed);
  for (const CehState& row : pos_) row.EncodeState(ceh_, encoder);
  for (const CehState& row : neg_) row.EncodeState(ceh_, encoder);
}

Status DecayedLpNorm::DecodeState(Decoder& decoder) {
  double p = 0.0, epsilon = 0.0, quantization = 0.0;
  uint64_t rows = 0, seed = 0;
  if (!decoder.GetDouble(&p) || !decoder.GetVarint(&rows) ||
      !decoder.GetDouble(&epsilon) || !decoder.GetDouble(&quantization) ||
      !decoder.GetVarint(&seed)) {
    return CorruptSnapshot("Lp sketch header");
  }
  if (p != options_.p || rows != static_cast<uint64_t>(options_.rows) ||
      epsilon != options_.epsilon || quantization != options_.quantization ||
      seed != options_.seed) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  for (std::vector<CehState>* rows : {&pos_, &neg_}) {
    for (CehState& row : *rows) {
      const Status status = row.DecodeState(ceh_, decoder);
      if (!status.ok()) return status;
    }
  }
  return Status::OK();
}

size_t DecayedLpNorm::StorageBits() const {
  size_t bits = 0;
  for (const CehState& row : pos_) bits += row.StorageBits(ceh_);
  for (const CehState& row : neg_) bits += row.StorageBits(ceh_);
  // The projection matrix itself costs one seed register.
  return bits + 64;
}

}  // namespace tds
