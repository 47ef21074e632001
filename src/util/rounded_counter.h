#ifndef TDS_UTIL_ROUNDED_COUNTER_H_
#define TDS_UTIL_ROUNDED_COUNTER_H_

namespace tds {

/// Reduced-precision rounding for approximate counters: the approximate
/// per-bucket count of Section 5 of the paper stores only the most
/// significant `log(1/beta)` bits of each count, where every rounding step
/// multiplies the stored value by a factor in [1, 1+beta).
///
/// WBMH merges bucket counts through a summation tree of depth <= log N; with
/// beta = epsilon / log N the accumulated factor is (1+beta)^{log N} <=
/// ~(1 + epsilon) (Lemma 5.1). The unknown-N variant rounds level i with
/// beta_i = epsilon / i^2 so that the infinite product still converges below
/// 1 + epsilon; WbmhState implements that by widening `bits` as the
/// merge level grows. EwmaState rounds its register the same way.
///
/// Rounds `x` up to `bits` significant bits, so the result lies in
/// [x, x * (1 + 2^{1-bits})); with bits >= log2(1/beta) this is the
/// (1+beta) step of the paper. `bits <= 0` returns x unchanged (exact mode).
double RoundValue(double x, int bits);

}  // namespace tds

#endif  // TDS_UTIL_ROUNDED_COUNTER_H_
