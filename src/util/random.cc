#include "util/random.h"

#include <cmath>

#include "util/check.h"

namespace tds {

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (SplitMix64(b) + 0x9e3779b97f4a7c15ULL));
}

uint64_t HashCombine(uint64_t a, uint64_t b, uint64_t c) {
  return HashCombine(HashCombine(a, b), c);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed the four xoshiro words from consecutive SplitMix64 outputs, as
  // recommended by the xoshiro authors.
  uint64_t s = seed;
  for (auto& word : s_) {
    s += 0x9e3779b97f4a7c15ULL;
    word = SplitMix64(s);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double BitsToUnitDouble(uint64_t bits) {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double Rng::NextDouble() { return BitsToUnitDouble(Next()); }

double Rng::NextOpenDouble() {
  double u = NextDouble();
  // Nudge 0 into the open interval; 1 is already excluded.
  return u > 0.0 ? u : 0x1.0p-53;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  TDS_CHECK_GE(bound, 1u);
  // Lemire's multiply-shift rejection method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0ULL - bound) % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextGaussian() {
  const double u1 = NextOpenDouble();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

void Rng::SaveState(uint64_t out[4]) const {
  for (int i = 0; i < 4; ++i) out[i] = s_[i];
}

void Rng::RestoreState(const uint64_t in[4]) {
  for (int i = 0; i < 4; ++i) s_[i] = in[i];
}

double HashedUniform(uint64_t seed, uint64_t index) {
  uint64_t bits = HashCombine(seed, index);
  double u = BitsToUnitDouble(bits);
  return u > 0.0 ? u : 0x1.0p-53;
}

}  // namespace tds
