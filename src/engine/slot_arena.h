#ifndef TDS_ENGINE_SLOT_ARENA_H_
#define TDS_ENGINE_SLOT_ARENA_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/common.h"

namespace tds {

/// Chunked slot arena backing the registry's per-key entries: slots live in
/// fixed-size chunks so references stay stable across growth (no vector
/// reallocation moves, no entry is ever copied), indices are dense 32-bit
/// handles for the open-addressing key table, and freed slots are recycled
/// through a free list. A bitmap records which slots are live; a freed slot
/// is reset to a default-constructed T, so it holds no heap block.
template <typename T>
class SlotArena {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  SlotArena() = default;
  SlotArena(SlotArena&&) = default;
  SlotArena& operator=(SlotArena&&) = default;

  /// Returns the index of a default-constructed slot (recycled if possible)
  /// and marks it live.
  uint32_t Allocate() {
    uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = extent_;
      TDS_CHECK_MSG(index != kNone, "slot arena exhausted");
      if ((index >> kChunkShift) >= chunks_.size()) {
        chunks_.push_back(std::make_unique<Chunk>());
        live_.resize(live_.size() + kChunkWords, 0);
      }
      ++extent_;
    }
    live_[index >> 6] |= uint64_t{1} << (index & 63);
    return index;
  }

  /// Resets the slot to a default-constructed T, marks it free and recycles
  /// its index.
  void Free(uint32_t index) {
    at(index) = T{};
    live_[index >> 6] &= ~(uint64_t{1} << (index & 63));
    free_.push_back(index);
  }

  /// Whether the slot is handed out (index < extent()).
  bool live(uint32_t index) const {
    TDS_CHECK_LT(index, extent_);
    return (live_[index >> 6] >> (index & 63)) & 1;
  }

  T& at(uint32_t index) {
    TDS_CHECK_LT(index, extent_);
    return chunks_[index >> kChunkShift]->slots[index & kChunkMask];
  }
  const T& at(uint32_t index) const {
    TDS_CHECK_LT(index, extent_);
    return chunks_[index >> kChunkShift]->slots[index & kChunkMask];
  }

  /// Issues a read prefetch for the slot's first cache line, where the
  /// owner keeps the fields it reads first. One line only: on a cold-key
  /// stream every extra prefetch competes for the same few line-fill
  /// buffers as the misses it means to hide. Out-of-range indices
  /// (including kNone) are a no-op, so callers can prefetch a table
  /// entry's slot handle before validating it.
  void Prefetch(uint32_t index) const {
    if (index >= extent_) return;
    TDS_PREFETCH(&chunks_[index >> kChunkShift]->slots[index & kChunkMask]);
  }

  /// Number of slots ever allocated (the sweep cursor's iteration space);
  /// includes currently-freed slots.
  uint32_t extent() const { return extent_; }

  size_t free_count() const { return free_.size(); }

  /// Slots currently handed out (extent minus the free list) — the arena's
  /// occupancy, reported by the engine's per-shard stats and cross-checked
  /// against the owner's live count in audits.
  size_t occupied() const { return extent_ - free_.size(); }

 private:
  static constexpr uint32_t kChunkShift = 12;  // 4096 slots per chunk
  static constexpr uint32_t kChunkMask = (1u << kChunkShift) - 1;
  static constexpr size_t kChunkWords = (size_t{1} << kChunkShift) / 64;
  // Chunks are cache-line aligned so slot 0 (and every slot whose size
  // divides 64) starts on a line boundary.
  struct alignas(64) Chunk {
    std::array<T, 1u << kChunkShift> slots;
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<uint32_t> free_;
  std::vector<uint64_t> live_;  ///< One bit per slot, kChunkWords per chunk.
  uint32_t extent_ = 0;
};

}  // namespace tds

#endif  // TDS_ENGINE_SLOT_ARENA_H_
