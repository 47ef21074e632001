#include "apps/usage_profile.h"

#include <algorithm>
#include <cmath>

namespace tds {

StatusOr<UsageProfileSet> UsageProfileSet::Create(DecayPtr decay,
                                                  const Options& options) {
  WbmhLayout::Options layout_options;
  layout_options.decay = std::move(decay);
  layout_options.epsilon = options.epsilon;
  layout_options.start = options.start;
  auto layout = WbmhLayout::Create(layout_options);
  if (!layout.ok()) return layout.status();
  return UsageProfileSet(std::make_shared<WbmhLayout>(std::move(layout).value()),
                         options);
}

void UsageProfileSet::Record(uint64_t customer, Tick t, uint64_t amount) {
  auto it = counters_.find(customer);
  if (it == counters_.end()) {
    WbmhCounter::Options counter_options;
    counter_options.count_epsilon = options_.count_epsilon;
    it = counters_.emplace(customer, WbmhCounter(layout_, counter_options))
             .first;
  }
  it->second.Add(t, amount);
}

double UsageProfileSet::Query(uint64_t customer, Tick now) {
  auto it = counters_.find(customer);
  if (it == counters_.end()) {
    layout_->AdvanceTo(now);
    return 0.0;
  }
  it->second.Advance(now);
  return it->second.Estimate(now);
}

void UsageProfileSet::SyncAll(Tick now) {
  layout_->AdvanceTo(now);
  uint64_t min_applied = layout_->OpSeq();
  for (auto& [customer, counter] : counters_) {
    counter.Sync();
    min_applied = std::min(min_applied, counter.AppliedSeq());
  }
  layout_->TrimLog(min_applied);
}

size_t UsageProfileSet::TotalStorageBits() const {
  size_t bits = 0;
  for (const auto& [customer, counter] : counters_) {
    bits += counter.StorageBits();
  }
  // Shared layout state, charged once: each bucket span is two timestamps.
  const double ts_bits = std::ceil(std::log2(
      static_cast<double>(std::max<Tick>(layout_->now(), 2)) + 1.0));
  bits += static_cast<size_t>(2.0 * ts_bits *
                              static_cast<double>(layout_->BucketCount()));
  return bits;
}

double UsageProfileSet::MeanCustomerBits() const {
  if (counters_.empty()) return 0.0;
  size_t bits = 0;
  for (const auto& [customer, counter] : counters_) {
    bits += counter.StorageBits();
  }
  return static_cast<double>(bits) / static_cast<double>(counters_.size());
}

}  // namespace tds
