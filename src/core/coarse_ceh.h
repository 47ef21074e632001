#ifndef TDS_CORE_COARSE_CEH_H_
#define TDS_CORE_COARSE_CEH_H_

#include <span>
#include <string_view>
#include <vector>

#include "core/standalone.h"
#include "histogram/flat_store.h"
#include "util/approx_age.h"
#include "util/random.h"
#include "util/status.h"

namespace tds {

/// What a coarse CEH is built from (CoarseCehDecayedSum::Options).
struct CoarseCehOptions {
  /// Bucket-count budget parameter, as in the exact CEH.
  double epsilon = 0.1;
  /// Boundary grid ratio (1 + delta): the age quantization coarseness.
  double boundary_delta = 0.25;
  /// Seed of a fresh state's aging RNG.
  uint64_t seed = 0xa9e5;
};

/// The constants of a coarse CEH, shared by every key of a registry: its
/// options, the decay and the per-class budget ClassBudget(epsilon).
struct CoarseCehParams : CoarseCehOptions {
  DecayPtr decay;
  uint64_t cap = 0;
};

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
///
/// One coarse CEH's state, without its constants (CoarseCehParams), is the
/// bucket block of approximate ages, the clock, the total, the largest age
/// seen and the aging RNG. CoarseCehDecayedSum owns one; a coarse-CEH
/// registry keeps one inline in each key's entry.
class CoarseCehState {
 public:
  using Params = CoarseCehParams;
  using Options = CoarseCehOptions;
  static constexpr std::string_view kName = "COARSE_CEH";

  /// Rejects a null decay, an epsilon that ClassBudget does not accept
  /// (outside (0, 1], or a per-class budget above kMaxClassBudget) and a
  /// boundary_delta <= 0.
  static StatusOr<CoarseCehParams> MakeParams(DecayPtr decay,
                                              const Options& options);
  static Options OptionsFor(const AggregateOptions& options) {
    return {options.epsilon()};
  }
  /// The payload leads with epsilon and boundary_delta.
  static StatusOr<CoarseCehParams> ReadParams(DecayPtr decay,
                                              Decoder& payload);

  /// An empty state; a live one starts from the params' seed.
  CoarseCehState() : rng_(0) {}
  explicit CoarseCehState(const CoarseCehParams& params) : rng_(params.seed) {}

  void Update(const CoarseCehParams& params, Tick t, uint64_t value);
  void UpdateBatch(const CoarseCehParams& params,
                   std::span<const StreamItem> items);
  void Advance(const CoarseCehParams& params, Tick now);
  /// Const and side-effect free: weights each bucket by its stored
  /// approximate boundary age plus the deterministic gap since the last
  /// mutation (the stochastic aging itself only runs inside
  /// Update/Advance, so reads never touch the RNG).
  double Query(const CoarseCehParams& params, Tick now) const;
  Tick now(const CoarseCehParams& /*params*/) const { return now_; }
  size_t StorageBits(const CoarseCehParams& params) const;
  void Prefetch() const { store_.Prefetch(); }

  size_t BucketCount() const { return store_.size(); }
  /// Sum of all live bucket counts.
  uint64_t TotalCount() const { return total_count_; }
  /// Approximate boundary ages, oldest first.
  std::vector<double> BoundaryAges() const;

  /// Structural invariants: the per-class budget is ClassBudget(epsilon)
  /// (so a tiny epsilon fails here too), the store's block invariants hold
  /// (FlatBucketStore::AuditInvariants), the class counts (2^c per class-c
  /// bucket) sum to total_count_ without overflow, per-class sizes respect
  /// the cap bound, and all boundary ages are finite, >= 1, and covered by
  /// max_age_seen_. (Age *ordering* across buckets is deliberately not
  /// audited: stochastic aging may reorder estimates.)
  Status AuditInvariants(const CoarseCehParams& params) const;

  /// Snapshot support.
  void EncodeState(const CoarseCehParams& params, Encoder& encoder) const;
  Status DecodeState(const CoarseCehParams& params, Decoder& decoder);

 private:
  void AdvanceTo(const CoarseCehParams& params, Tick t);
  void Expire(const CoarseCehParams& params);

  /// Bucket stamps in one array, oldest first; a bucket's stamp is its
  /// approximate boundary age and its count is implied by its class.
  FlatBucketStore<ApproxAge> store_;
  Tick now_ = 0;
  uint64_t total_count_ = 0;
  double max_age_seen_ = 2.0;
  Rng rng_;
};

using CoarseCehDecayedSum = Standalone<CoarseCehState>;

}  // namespace tds

#endif  // TDS_CORE_COARSE_CEH_H_
