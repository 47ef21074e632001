// Experiment SHARE — the paper's carrier-scale storage argument
// quantified (Sections 1.1 and 5): with S streams over the same decay,
// WBMH boundaries are computed once and shared, so total storage is
//   layout (once)  +  S * (bucket counts only),
// while any timestamp-carrying structure (CEH) pays its full boundary
// cost per stream. This bench sweeps the number of streams and reports
// total and per-stream bits for both designs, plus the break-even point.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/ceh.h"
#include "decay/polynomial.h"
#include "engine/registry.h"
#include "util/random.h"

namespace tds {
namespace {

void Run(int streams, Tick ticks) {
  auto decay = PolynomialDecay::Create(1.0).value();

  // Shared-layout WBMH: one registry key per stream, all on the
  // registry's one layout (counts round at the bucketing epsilon).
  AggregateRegistry::Options options;
  options.aggregate = AggregateOptions::Builder()
                          .backend(Backend::kWbmh)
                          .epsilon(0.5)
                          .Build()
                          .value();
  auto profiles = AggregateRegistry::Create(decay, options).value();

  // Per-stream CEH baseline at a comparable accuracy point.
  CehDecayedSum::Options ceh_options;
  ceh_options.epsilon = 0.5;
  std::vector<std::unique_ptr<CehDecayedSum>> cehs;
  cehs.reserve(streams);
  for (int s = 0; s < streams; ++s) {
    cehs.push_back(
        std::move(CehDecayedSum::Create(decay, ceh_options)).value());
  }

  // Every stream sees sparse activity: each tick, a few streams get items.
  Rng rng(987);
  for (Tick t = 1; t <= ticks; ++t) {
    const int active = 1 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < active; ++i) {
      const auto stream =
          static_cast<uint64_t>(rng.NextBelow(static_cast<uint64_t>(streams)));
      profiles.Update(stream, t, 1);
      cehs[stream]->Update(t, 1);
    }
  }
  profiles.Advance(ticks);

  size_t ceh_total = 0;
  for (auto& ceh : cehs) {
    ceh->Query(ticks);
    ceh_total += ceh->StorageBits();
  }
  const size_t wbmh_total = profiles.StorageBits();
  size_t counter_total = 0;
  profiles.ForEachKey([&](uint64_t, Tick,
                          const AggregateRegistry::KeyView& counter) {
    counter_total += counter.StorageBits();
  });
  const double wbmh_per_stream = static_cast<double>(counter_total) /
                                 static_cast<double>(profiles.KeyCount());
  bench::PrintRow(
      {bench::FmtInt(streams), bench::FmtInt(static_cast<long long>(ticks)),
       bench::FmtInt(static_cast<long long>(wbmh_total)),
       bench::FmtInt(static_cast<long long>(ceh_total)),
       bench::Fmt(wbmh_per_stream, 4),
       bench::Fmt(static_cast<double>(ceh_total) /
                      static_cast<double>(streams),
                  4),
       bench::Fmt(static_cast<double>(ceh_total) /
                      static_cast<double>(wbmh_total),
                  3)});
}

}  // namespace
}  // namespace tds

int main() {
  std::printf(
      "SHARE: S streams over POLYD(1): shared-layout WBMH (boundaries once,\n"
      "counts per stream) vs per-stream CEH (full histogram each).\n\n");
  tds::bench::PrintRow({"streams", "ticks", "WBMH bits", "CEH bits",
                        "WBMH b/strm", "CEH b/strm", "CEH/WBMH"});
  for (int streams : {10, 100, 1000, 10000}) {
    tds::Run(streams, 20000);
  }
  std::printf(
      "\nexpectation: per-stream WBMH bits stay ~flat (counts only) while\n"
      "the shared layout amortizes away; the CEH/WBMH total ratio grows\n"
      "toward the per-stream boundary overhead (the paper's 100M-customer\n"
      "argument).\n");
  return 0;
}
