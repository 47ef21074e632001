#ifndef TDS_SKETCH_DECAYED_LP_NORM_H_
#define TDS_SKETCH_DECAYED_LP_NORM_H_

#include <cstdint>
#include <vector>

#include "core/ceh.h"
#include "decay/decay_function.h"
#include "util/stable.h"
#include "util/status.h"

namespace tds {

/// Time-decaying L_p norm sketch (paper Section 7.1). Each update is an
/// increment (amount a_i, coordinate c_i) to a d-dimensional vector whose
/// j-th decayed coordinate is H_j(T) = sum_{i: c_i = j} g(age_i) * a_i; the
/// sketch estimates ||H_g(T)||_p for p in (0, 2] with o(d) state.
///
/// Construction follows Indyk's method, cascaded through decayed sums as
/// proposed in the paper: L rows of a p-stable projection whose entries are
/// regenerated on the fly from (seed, row, coordinate) hashes (never
/// stored); row values sum a_i * x(row, c_i) and are maintained *decayed*
/// by a pair of CEH states per row (positive and negative parts, since
/// the histograms hold nonnegative integer counts — contributions are
/// quantized), which share one CehParams. The norm estimate is median_row |row value| divided by the
/// median of |p-stable|.
class DecayedLpNorm {
 public:
  struct Options {
    double p = 1.0;
    /// Number of sketch rows L (more rows -> tighter median concentration).
    int rows = 32;
    /// Relative accuracy of each row's decayed sums.
    double epsilon = 0.05;
    /// Fixed-point scale used to quantize projected contributions.
    double quantization = 1024.0;
    uint64_t seed = 0x11dc0de;
  };

  static StatusOr<DecayedLpNorm> Create(DecayPtr decay,
                                        const Options& options);

  /// Adds `amount` to coordinate `coord` at tick t.
  void Update(Tick t, uint64_t coord, uint64_t amount);

  /// Estimated decayed L_p norm at `now`.
  double Query(Tick now);

  /// Projection entry for (row, coord) — deterministic; exposed for tests.
  double ProjectionEntry(int row, uint64_t coord) const;

  size_t StorageBits() const;
  int rows() const { return static_cast<int>(pos_.size()); }
  const DecayPtr& decay() const { return ceh_.decay; }

  /// Snapshot support: serializes options and all row states (projection
  /// entries are hash-derived from the seed and never stored). Restore
  /// with DecodeDecayedLpNorm, re-supplying the same decay function.
  void EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

  const Options& options() const { return options_; }

 private:
  DecayedLpNorm(const Options& options, StableSampler sampler,
                CehParams ceh);

  Options options_;
  StableSampler sampler_;
  CehParams ceh_;  ///< Every row's constants.
  std::vector<CehState> pos_;
  std::vector<CehState> neg_;
};

}  // namespace tds

#endif  // TDS_SKETCH_DECAYED_LP_NORM_H_
