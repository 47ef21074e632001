// Experiment EX-CEH — regenerates the paper's Section 4.2 worked example:
// with consecutive weights g = (8, 5, 3, 2) at T = 4, the decaying count
//   8 f(3) + 5 f(2) + 3 f(1) + 2 f(0)
// is rewritten by summation by parts as a positively-weighted sum of
// sliding-window counts:
//   2 [f0+f1+f2+f3] + 1 [f1+f2+f3] + 2 [f2+f3] + 3 [f3].
// This binary evaluates both forms on exact window counts, then shows the
// CEH estimate (EH windows + cascade) against the exact decaying sum on a
// stream where the EH has actually merged buckets.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/ceh.h"
#include "core/exact.h"
#include "decay/custom.h"
#include "stream/generators.h"

namespace tds {
namespace {

// The example's weights: age 1 -> 8, age 2 -> 5, age 3 -> 3, age 4 -> 2.
// (The paper indexes elapsed time from 0; our age convention starts at 1.)
DecayPtr ExampleDecay() {
  return CustomDecay::Create(
             [](Tick age) -> double {
               switch (age) {
                 case 1: return 8.0;
                 case 2: return 5.0;
                 case 3: return 3.0;
                 case 4: return 2.0;
                 default: return 0.0;
               }
             },
             /*horizon=*/4, "paper-4.2")
      .value();
}

}  // namespace
}  // namespace tds

int main() {
  using namespace tds;
  std::printf("EX-CEH: Section 4.2 example, weights (8,5,3,2).\n\n");

  // f(1..4) = values observed at ticks 1..4 (paper's f(0..3)).
  const std::vector<uint64_t> f = {3, 1, 4, 2};
  const Tick now = 4;

  double direct = 0.0;
  for (Tick t = 1; t <= 4; ++t) {
    direct += static_cast<double>(f[t - 1]) *
              ExampleDecay()->Weight(AgeAt(t, now));
  }
  // Summation by parts: weights differences (2, 3-2, 5-3, 8-5) over suffix
  // window counts.
  const double win4 = f[0] + f[1] + f[2] + f[3];
  const double win3 = f[1] + f[2] + f[3];
  const double win2 = f[2] + f[3];
  const double win1 = f[3];
  const double by_parts = 2 * win4 + (3 - 2) * win3 + (5 - 3) * win2 +
                          (8 - 5) * win1;
  std::printf("direct decaying sum      : %.1f\n", direct);
  std::printf("summation-by-parts form  : %.1f   (must match exactly)\n\n",
              by_parts);

  // Now the same decay maintained by a real CEH over a longer stream.
  auto decay = ExampleDecay();
  CehDecayedSum::Options options;
  options.epsilon = 0.1;
  auto ceh = CehDecayedSum::Create(decay, options);
  auto exact = ExactDecayedSum::Create(decay);
  const Stream stream = BernoulliStream(2000, 0.7, 4242);
  bench::PrintRow({"T", "exact S_g", "CEH S_g'", "rel.err", "EH buckets"});
  size_t i = 0;
  for (Tick t = 1; t <= 2000; ++t) {
    if (i < stream.size() && stream[i].t == t) {
      (*ceh)->Update(t, stream[i].value);
      (*exact)->Update(t, stream[i].value);
      ++i;
    }
    if (t % 250 == 0) {
      const double truth = (*exact)->Query(t);
      const double estimate = (*ceh)->Query(t);
      const double rel =
          truth > 0 ? std::abs(estimate - truth) / truth : 0.0;
      bench::PrintRow({bench::FmtInt(t), bench::Fmt(truth),
                       bench::Fmt(estimate), bench::Fmt(rel, 2),
                       bench::FmtInt(static_cast<long long>(
                           (*ceh)->state().BucketCount()))});
    }
  }
  return 0;
}
