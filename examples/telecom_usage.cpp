// Carrier-scale usage profiles (paper Section 1.1, the AT&T giga-mining
// application): one decayed usage score per customer, for very many
// customers. This is the WBMH's flagship deployment shape — a registry of
// per-customer WBMH counters over a single shared, stream-independent
// bucket layout, so each customer pays only for approximate bucket counts.
#include <cstdio>
#include <vector>

#include "decay/polynomial.h"
#include "engine/registry.h"
#include "util/random.h"

int main() {
  using namespace tds;
  const int kCustomers = 100000;
  const Tick kTicks = 5000;  // e.g. hours of service life

  AggregateRegistry::Options options;
  // Bucketing precision; the per-bucket counts round at the same epsilon.
  options.aggregate = AggregateOptions::Builder()
                          .backend(Backend::kWbmh)
                          .epsilon(0.5)
                          .Build()
                          .value();
  auto profiles =
      AggregateRegistry::Create(PolynomialDecay::Create(1.0).value(), options)
          .value();

  // Zipf-ish activity: a few heavy hitters, a long tail.
  Rng rng(31337);
  uint64_t events = 0;
  for (Tick t = 1; t <= kTicks; ++t) {
    const int active = 40;  // customers active this tick
    for (int i = 0; i < active; ++i) {
      const double u = rng.NextOpenDouble();
      const auto customer =
          static_cast<uint64_t>(static_cast<double>(kCustomers) * u * u);
      profiles.Update(customer, t, 1 + rng.NextBelow(5));
      ++events;
    }
  }
  // Periodic maintenance: bring every counter up to date, trim the shared
  // op log.
  profiles.Advance(kTicks);

  size_t customer_bits = 0;
  profiles.ForEachKey([&](uint64_t, Tick,
                          const AggregateRegistry::KeyView& counter) {
    customer_bits += counter.StorageBits();
  });
  const size_t total_bits = profiles.StorageBits();
  std::printf("customers touched : %zu (of %d ids)\n", profiles.KeyCount(),
              kCustomers);
  std::printf("usage events      : %llu\n",
              static_cast<unsigned long long>(events));
  std::printf("shared layout     : %zu bits (one copy for everyone)\n",
              total_bits - customer_bits);
  std::printf("mean bits/customer: %.1f\n",
              static_cast<double>(customer_bits) /
                  static_cast<double>(profiles.KeyCount()));
  std::printf("total storage     : %.2f MB equivalent\n",
              static_cast<double>(total_bits) / 8.0 / 1e6);

  std::printf("\nsample decayed usage scores at t=%lld:\n",
              static_cast<long long>(kTicks));
  for (uint64_t customer : {0u, 1u, 10u, 1000u, 50000u}) {
    std::printf("  customer %-6llu -> %.2f\n",
                static_cast<unsigned long long>(customer),
                profiles.Query(customer, kTicks));
  }
  std::printf(
      "\nBoundary state is shared: per-customer cost is a handful of\n"
      "rounded counters (Section 5's storage argument).\n");
  return 0;
}
