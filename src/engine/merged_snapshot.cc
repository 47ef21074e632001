#include "engine/merged_snapshot.h"

#include <algorithm>
#include <utility>

namespace tds {

StatusOr<MergedSnapshot> MergedSnapshot::FromShards(
    std::vector<AggregateRegistry> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("merged snapshot needs at least one shard");
  }
  AggregateRegistry merged = std::move(shards.front());
  for (size_t i = 1; i < shards.size(); ++i) {
    const Status status = merged.MergeFrom(std::move(shards[i]));
    if (!status.ok()) return status;
  }
  return MergedSnapshot(std::move(merged));
}

double MergedSnapshot::Query(uint64_t key, Tick now) const {
  return registry_.Query(key, std::max(now, cut()));
}

double MergedSnapshot::QueryTotal(Tick now) const {
  return registry_.QueryTotal(std::max(now, cut()));
}

std::vector<uint64_t> MergedSnapshot::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(registry_.KeyCount());
  registry_.ForEachKey(
      [&](uint64_t key, Tick, const AggregateRegistry::KeyView&) {
        keys.push_back(key);
      });
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<MergedSnapshot::WeightedKey> MergedSnapshot::TopK(size_t k,
                                                              Tick now) const {
  const Tick at = std::max(now, cut());
  std::vector<WeightedKey> all;
  all.reserve(registry_.KeyCount());
  registry_.ForEachKey(
      [&](uint64_t key, Tick, const AggregateRegistry::KeyView& view) {
        all.push_back(WeightedKey{key, view.Query(at)});
      });
  // Partial selection: O(n + k log k) instead of sorting all n live keys.
  // The comparator is a strict total order (key breaks weight ties), so the
  // result is deterministic regardless of nth_element's internal ordering.
  const auto heavier = [](const WeightedKey& a, const WeightedKey& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.key < b.key;
  };
  if (all.size() > k) {
    std::nth_element(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                     all.end(), heavier);
    all.resize(k);
  }
  std::sort(all.begin(), all.end(), heavier);
  return all;
}

}  // namespace tds
