#ifndef TDS_CORE_COARSE_CEH_H_
#define TDS_CORE_COARSE_CEH_H_

#include <memory>
#include <string>
#include <vector>

#include "core/decayed_aggregate.h"
#include "histogram/flat_store.h"
#include "util/approx_age.h"
#include "util/random.h"
#include "util/status.h"

namespace tds {

/// CEH with approximately-maintained time boundaries — the paper's
/// Section 5 closing remark (attributed to Y. Matias): for polynomial
/// decay, a constant-factor error in a bucket's boundary is only a
/// constant-factor error in that bucket's contribution, so boundaries can
/// be kept in O(log log N) bits each (ApproxAge), cutting the CEH's
/// O(eps^-1 log^2 N) to O(eps^-1 log N log log N) — the same storage class
/// as the WBMH, by a different route.
///
/// The histogram is the same domination-based structure as the exact CEH
/// (power-of-two bucket counts, at most `cap` buckets per size class, two
/// oldest merge on overflow); only the boundary representation changes.
/// The estimate weights each bucket by g(approximate boundary age).
///
/// Guarantee: a constant-factor approximation for POLYD (the grid ratio
/// and stochastic aging each contribute a bounded factor); the
/// decay_families benchmark measures the constant. For (1 +- eps) answers
/// use CehDecayedSum or WbmhDecayedSum.
class CoarseCehDecayedSum : public DecayedAggregate {
 public:
  struct Options {
    /// Bucket-count budget parameter, as in the exact CEH.
    double epsilon = 0.1;
    /// Boundary grid ratio (1 + delta): the age quantization coarseness.
    double boundary_delta = 0.25;
    uint64_t seed = 0xa9e5;
  };

  /// Rejects an epsilon that ClassBudget does not accept (outside (0, 1],
  /// or a per-class budget above kMaxClassBudget).
  static StatusOr<std::unique_ptr<CoarseCehDecayedSum>> Create(
      DecayPtr decay, const Options& options);

  void Update(Tick t, uint64_t value) override;
  void Advance(Tick now) override;
  void PrefetchState() const override { store_.Prefetch(); }
  /// Const and side-effect free: weights each bucket by its stored
  /// approximate boundary age plus the deterministic gap since the last
  /// mutation (the stochastic aging itself only runs inside
  /// Update/Advance, so reads never touch the RNG).
  double Query(Tick now) const override;
  Tick now() const override { return now_; }
  size_t StorageBits() const override;
  std::string Name() const override { return "COARSE_CEH"; }
  const DecayPtr& decay() const override { return decay_; }
  std::unique_ptr<DecayedAggregate> Clone() const override {
    return std::make_unique<CoarseCehDecayedSum>(*this);
  }

  size_t BucketCount() const;
  /// Sum of all live bucket counts.
  uint64_t TotalCount() const { return total_count_; }

  /// Approximate boundary ages, oldest first (for tests).
  std::vector<double> BoundaryAges() const;

  /// Structural invariants: the per-class budget is ClassBudget(epsilon)
  /// (so a tiny epsilon fails here too), the store's block invariants hold
  /// (FlatBucketStore::AuditInvariants), the class counts (2^c per class-c
  /// bucket) sum to total_count_ without overflow, per-class sizes respect
  /// the cap bound, and all boundary ages are finite, >= 1, and covered by
  /// max_age_seen_. (Age *ordering* across buckets is deliberately not
  /// audited: stochastic aging may reorder estimates.)
  Status AuditInvariants() const;

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

 private:
  CoarseCehDecayedSum(DecayPtr decay, const Options& options);

  void AdvanceTo(Tick t);
  void InsertUnits(uint64_t units);
  void Expire();

  DecayPtr decay_;
  Options options_;
  uint64_t cap_;
  Rng rng_;

  /// Bucket stamps in one array, oldest first; a bucket's stamp is its
  /// approximate boundary age and its count is implied by its class.
  FlatBucketStore<ApproxAge> store_;

  Tick now_ = 0;
  uint64_t total_count_ = 0;
  double max_age_seen_ = 2.0;
};

}  // namespace tds

#endif  // TDS_CORE_COARSE_CEH_H_
