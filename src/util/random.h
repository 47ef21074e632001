#ifndef TDS_UTIL_RANDOM_H_
#define TDS_UTIL_RANDOM_H_

#include <cstdint>

namespace tds {

/// Mixes a 64-bit value through the SplitMix64 finalizer. Used both as a
/// standalone hash (counter-based RNG for on-the-fly sketch matrices) and as
/// the state-advance function of Rng. Inline: the registry hashes every
/// ingested key with it.
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes an arbitrary-length key tuple into 64 bits by chaining SplitMix64.
/// Deterministic across runs and platforms: the p-stable sketch uses this to
/// regenerate projection-matrix entries from (seed, row, column) without
/// storing them (Section 7.1 of the paper / Indyk's method).
uint64_t HashCombine(uint64_t a, uint64_t b);
uint64_t HashCombine(uint64_t a, uint64_t b, uint64_t c);

/// Small, fast, deterministic PRNG (xoshiro256++). Not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in (0, 1) — excludes both endpoints; safe for log().
  double NextOpenDouble();

  /// Uniform integer in [0, bound) for bound >= 1 (unbiased, Lemire-style).
  uint64_t NextBelow(uint64_t bound);

  /// Standard normal via Box-Muller (no cached spare; stateless per call
  /// pair is avoided for reproducibility under interleaving).
  double NextGaussian();

  /// Bernoulli(p).
  bool NextBernoulli(double p);

  /// Snapshot support: the four xoshiro state words.
  void SaveState(uint64_t out[4]) const;
  void RestoreState(const uint64_t in[4]);

 private:
  uint64_t s_[4];
};

/// Converts 64 uniform bits to a double in [0, 1).
double BitsToUnitDouble(uint64_t bits);

/// Deterministic uniform in (0,1) derived from a hashed key: the value for a
/// given (seed, index) pair never changes. Used for on-the-fly regeneration
/// of sketch randomness.
double HashedUniform(uint64_t seed, uint64_t index);

}  // namespace tds

#endif  // TDS_UTIL_RANDOM_H_
