// Experiment DIST — distributed sliding-window streams (the Gibbons &
// Tirthapura setting the paper cites in Section 1.2): k sites each
// maintain an EH over their local substream; a coordinator merges the k
// summaries and answers window queries over the union. Reports the
// coordinator's relative error and communication cost (bits shipped)
// versus a centralized EH over the full stream, across site counts, and
// the same for general decay via merged CEHs.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/ceh.h"
#include "core/exact.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "histogram/exponential_histogram.h"
#include "stream/generators.h"
#include "util/random.h"

namespace tds {
namespace {

void SliwinRow(int sites, const Stream& stream, Tick window) {
  const double epsilon = 0.1;
  ExponentialHistogram::Options options;
  options.epsilon = epsilon;
  options.window = window;
  std::vector<ExponentialHistogram> site_summaries;
  for (int s = 0; s < sites; ++s) {
    site_summaries.push_back(
        std::move(ExponentialHistogram::Create(options)).value());
  }
  auto centralized = std::move(ExponentialHistogram::Create(options)).value();
  Rng rng(4096 + sites);
  for (const StreamItem& item : stream) {
    site_summaries[rng.NextBelow(sites)].Add(item.t, item.value);
    centralized.Add(item.t, item.value);
  }
  const Tick end = StreamEnd(stream);
  auto coordinator = std::move(ExponentialHistogram::Create(options)).value();
  size_t shipped_bits = 0;
  for (auto& site : site_summaries) {
    site.AdvanceTo(end);
    shipped_bits += site.StorageBits();
    coordinator.MergeFrom(site).ok();
  }
  // Exact union count over the window.
  double exact = 0.0;
  for (const StreamItem& item : stream) {
    if (AgeAt(item.t, end) <= window) exact += static_cast<double>(item.value);
  }
  const double merged = coordinator.Estimate();
  const double central = centralized.Estimate();
  bench::PrintRow({bench::FmtInt(sites),
                   bench::Fmt(std::fabs(merged - exact) / exact, 3),
                   bench::Fmt(std::fabs(central - exact) / exact, 3),
                   bench::FmtInt(static_cast<long long>(shipped_bits)),
                   bench::FmtInt(static_cast<long long>(
                       centralized.StorageBits()))});
}

void CehRow(int sites, const Stream& stream) {
  auto decay = PolynomialDecay::Create(1.0).value();
  CehDecayedSum::Options options;
  options.epsilon = 0.1;
  std::vector<std::unique_ptr<CehDecayedSum>> site_summaries;
  for (int s = 0; s < sites; ++s) {
    site_summaries.push_back(
        std::move(CehDecayedSum::Create(decay, options)).value());
  }
  auto exact = ExactDecayedSum::Create(decay);
  Rng rng(9000 + sites);
  for (const StreamItem& item : stream) {
    site_summaries[rng.NextBelow(sites)]->Update(item.t, item.value);
    (*exact)->Update(item.t, item.value);
  }
  const Tick end = StreamEnd(stream);
  auto coordinator = std::move(CehDecayedSum::Create(decay, options)).value();
  for (auto& site : site_summaries) {
    site->Query(end);  // advance clocks
    MergeFrom(*coordinator, *site).ok();
  }
  const double truth = (*exact)->Query(end);
  const double merged = coordinator->Query(end);
  bench::PrintRow({bench::FmtInt(sites),
                   bench::Fmt(std::fabs(merged - truth) / truth, 3)});
}

}  // namespace
}  // namespace tds

int main() {
  using namespace tds;
  std::printf(
      "DIST: k-site distributed summaries merged at a coordinator\n"
      "(Gibbons-Tirthapura setting, Section 1.2 citation).\n\n");
  const Stream stream = BernoulliStream(20000, 0.8, 2718);
  std::printf("SLIWIN(4096) counts, eps=0.1:\n");
  bench::PrintRow({"sites", "merged.err", "central.err", "shipped bits",
                   "central bits"});
  for (int sites : {2, 4, 8, 16, 32}) {
    SliwinRow(sites, stream, 4096);
  }
  std::printf(
      "\nPOLYD(1) decayed sum via merged CEHs, eps=0.1 (merged.err vs "
      "exact):\n");
  bench::PrintRow({"sites", "merged.err"});
  for (int sites : {2, 8, 32}) {
    CehRow(sites, stream);
  }
  std::printf(
      "\nexpectation: merged error stays within ~2x the configured eps\n"
      "regardless of site count; shipped bits = k site summaries (polylog\n"
      "each), far below shipping the raw substreams.\n");
  return 0;
}
