#include "util/rounded_counter.h"

#include <cmath>

namespace tds {

double RoundValue(double x, int bits) {
  if (x <= 0.0 || bits <= 0) return x;
  const int exponent = std::ilogb(x);
  // Unit in the last place of a `bits`-bit mantissa whose leading bit has
  // weight 2^exponent.
  const double ulp = std::ldexp(1.0, exponent - bits + 1);
  // Round up: the stored value is in [x, x * (1 + 2^{1-bits})), matching the
  // paper's "multiply by a number between 1 and (1+beta)".
  return std::ceil(x / ulp) * ulp;
}

}  // namespace tds
