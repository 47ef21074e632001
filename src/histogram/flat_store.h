#ifndef TDS_HISTOGRAM_FLAT_STORE_H_
#define TDS_HISTOGRAM_FLAT_STORE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/audit.h"
#include "util/check.h"
#include "util/common.h"

namespace tds {

/// A store's per-class bucket counter.
using ClassSize = uint16_t;

/// The largest per-class bucket budget a store takes. A decoder accepts up
/// to 2 * cap + 2 buckets in one class before the audit judges them, so
/// that count must fit a ClassSize.
inline constexpr uint64_t kMaxClassBudget =
    (std::numeric_limits<ClassSize>::max() - 2) / 2;
static_assert(2 * kMaxClassBudget + 2 <= std::numeric_limits<ClassSize>::max());

/// The per-class bucket budget `cap = ceil(1/eps) + 1` of Datar et al.,
/// shared by the EH, the CEH and the coarse CEH; 0 when eps is not in
/// (0, 1] or its budget exceeds kMaxClassBudget (eps below 1/32765, about
/// 3.05e-5). No out-of-range double is ever cast.
inline uint64_t ClassBudget(double epsilon) {
  if (!(epsilon > 0.0 && epsilon <= 1.0)) return 0;
  const double cap = std::ceil(1.0 / epsilon) + 1.0;
  if (!(cap <= static_cast<double>(kMaxClassBudget))) return 0;
  return static_cast<uint64_t>(cap);
}

/// Contiguous bucket storage for exponential-histogram-shaped structures,
/// after Sun & Li's Flattened EH. A bucket is its stamp alone: its count is
/// implied by its size class (a class-c bucket holds 2^c units, paper
/// Section 4.1), so one stamp array in canonical oldest-first order (highest
/// size class first, class 0 last) plus a class-size directory, which
/// delimits the class segments, is the whole state.
///
/// Why one array suffices: the canonical EH ordering invariant — every
/// bucket of class c is newer than every bucket of class c+1 — means the
/// concatenation class N-1, ..., class 1, class 0 IS the global oldest-first
/// order, so one array plus per-class sizes holds every class.
///
/// Layout: one heap block per store, the ClassSize directory first and the
/// stamps after it, so a cold key's buckets are one allocation and
/// Prefetch() can request them before the key is touched:
///
///   block_ -> [ class_size[0 .. class_capacity) | stamp[0 .. capacity) ]
///                                                  ^head_      ^end_
///
/// `head_` marks the oldest live bucket, so front expiry is an offset bump;
/// a store that expiry empties rewinds to the front and reuses its block.
///
/// Cost model: inserts are tail writes. When the tail is full the live
/// stamps slide over the dead prefix to the front (O(live), and only once
/// per tail-full); the block grows — by half, or to fit — only when the
/// live buckets fill it. A merge cascade that reaches class A rewrites only
/// the array suffix occupied by classes A..0 as one in-place compaction
/// sweep. A merge at class c fires once per ~2^c inserted units, so the
/// amortized insert cost is O(cap), with no per-bucket heap allocation.
///
/// `Stamp` is the per-bucket boundary representation: an exact end tick for
/// the EH/CEH, an ApproxAge for the coarse CEH.
template <typename Stamp>
class FlatBucketStore {
  static_assert(std::is_trivially_copyable_v<Stamp>,
                "stamps move by memcpy between blocks");

 public:
  FlatBucketStore() = default;
  /// Copies the live buckets into an exactly-sized block.
  FlatBucketStore(const FlatBucketStore& other)
      : num_classes_(other.num_classes_) {
    Allocate(RoundUpClasses(other.num_classes_),
             static_cast<uint32_t>(other.size()));
    CopyN(sizes(), other.sizes(), num_classes_);
    CopyN(stamps(), other.stamps() + other.head_, other.size());
    end_ = static_cast<uint32_t>(other.size());
  }
  FlatBucketStore(FlatBucketStore&& other) noexcept { Swap(other); }
  FlatBucketStore& operator=(const FlatBucketStore& other) {
    if (this != &other) {
      FlatBucketStore copy(other);
      Swap(copy);
    }
    return *this;
  }
  FlatBucketStore& operator=(FlatBucketStore&& other) noexcept {
    FlatBucketStore moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~FlatBucketStore() { ::operator delete(block_); }

  size_t num_classes() const { return num_classes_; }
  size_t class_size(size_t c) const { return sizes()[c]; }
  /// Live buckets (excludes the expired prefix).
  size_t size() const { return end_ - head_; }
  bool empty() const { return size() == 0; }
  /// Stamps the block holds (live, expired prefix and free tail).
  size_t capacity() const { return capacity_; }

  /// Index range of the live buckets, oldest first.
  size_t begin_index() const { return head_; }
  size_t end_index() const { return end_; }

  const Stamp& stamp(size_t i) const { return stamps()[i]; }
  Stamp& stamp(size_t i) { return stamps()[i]; }

  /// Empties the store; the block stays for reuse.
  void Clear() {
    head_ = 0;
    end_ = 0;
    num_classes_ = 0;
  }

  /// Requests the block's first line — the directory, which every insert
  /// and expiry reads first, and the front stamps — without reading the
  /// block. One line only, like SlotArena::Prefetch: a cold-key stream is
  /// bound by line-fill buffers, and further prefetches for the head and
  /// tail stamps measured slower than none.
  void Prefetch() const {
    if (block_ != nullptr) TDS_PREFETCH(block_);
  }

  /// Calls f(stamp, count) for every live bucket, oldest to newest: a single
  /// linear scan of the stamps, class segment by class segment.
  template <typename F>
  void ForEachOldestFirst(F&& f) const {
    const ClassSize* class_sizes = sizes();
    const Stamp* stamp_array = stamps();
    size_t i = head_;
    for (size_t c = num_classes_; c-- > 0;) {
      const uint64_t count = uint64_t{1} << c;
      for (const size_t end = i + class_sizes[c]; i < end; ++i) {
        f(stamp_array[i], count);
      }
    }
  }

  /// Calls f(c, begin, end) for each class segment in ascending class order
  /// (class 0 — the newest segment, at the array tail — first). The codecs'
  /// wire order and the coarse-CEH RNG sweep are defined by this order.
  template <typename F>
  void ForEachSegmentAscendingClass(F&& f) const {
    size_t end = end_;
    for (size_t c = 0; c < num_classes_; ++c) {
      const size_t begin = end - sizes()[c];
      f(c, begin, end);
      end = begin;
    }
    TDS_CHECK(end == head_);
  }

  /// Replaces the contents with buckets given in the codecs' wire order:
  /// `read_class(c, out)` runs for c = 0 .. num_classes - 1 and appends
  /// class c's stamps to `out`, oldest first, returning false to abort (the
  /// store is then unchanged). The stamps collect in the thread's cascade
  /// scratch (idle during a decode) and land canonically, highest class
  /// first, in the store's block, which is replaced by an exactly-sized one
  /// if it is too small. Every class must hold at most 2 * kMaxClassBudget
  /// + 2 buckets (callers bound it by their own cap first). Cold path:
  /// snapshot decode.
  template <typename ReadClass>
  bool AssignFromAscendingClasses(size_t num_classes, ReadClass&& read_class) {
    TDS_CHECK_LE(num_classes, 64u);
    Scratch& s = TlsScratch();
    std::vector<Stamp>& wire = s.rebuild_stamps;
    std::vector<size_t>& class_sizes = s.seg_offs;
    wire.clear();
    class_sizes.assign(num_classes, 0);
    for (size_t c = 0; c < num_classes; ++c) {
      const size_t before = wire.size();
      if (!read_class(c, wire)) return false;
      class_sizes[c] = wire.size() - before;
      TDS_CHECK_LE(class_sizes[c], 2 * kMaxClassBudget + 2);
    }
    Clear();
    if (num_classes > class_capacity_ || wire.size() > capacity_) {
      ::operator delete(block_);
      block_ = nullptr;
      Allocate(RoundUpClasses(num_classes), ToIndex(wire.size()));
    }
    num_classes_ = static_cast<uint8_t>(num_classes);
    Stamp* out = stamps();
    size_t end = wire.size();
    for (size_t c = num_classes; c-- > 0;) {
      sizes()[c] = static_cast<ClassSize>(class_sizes[c]);
      end -= class_sizes[c];
      CopyN(out, wire.data() + end, class_sizes[c]);
      out += class_sizes[c];
    }
    end_ = ToIndex(wire.size());
    return true;
  }

  /// Pops buckets off the global front while `expired(stamp)` holds and
  /// returns the total count removed. Canonical ordering makes this one
  /// global front pop equal to per-class front expiry from the highest class
  /// down. The directory keeps its length, because the codecs encode
  /// emptied classes too and a decoded copy must re-encode to the same
  /// bytes.
  template <typename Pred>
  uint64_t ExpireOldest(Pred&& expired) {
    ClassSize* class_sizes = sizes();
    const Stamp* stamp_array = stamps();
    uint64_t removed_count = 0;
    for (size_t c = num_classes_; c-- > 0;) {
      while (class_sizes[c] > 0 && expired(stamp_array[head_])) {
        removed_count += uint64_t{1} << c;
        --class_sizes[c];
        ++head_;
      }
      if (class_sizes[c] > 0) break;
    }
    if (head_ == end_) head_ = end_ = 0;
    return removed_count;
  }

  /// Inserts `incoming_units` unit buckets stamped `fresh` into class 0 and
  /// runs the EH merge cascade (the two oldest buckets of a class merge into
  /// the next while the class exceeds `cap`, which is at most
  /// kMaxClassBudget). Digit arithmetic reproduces inserting the units one
  /// at a time in O(cap * log units) steps. `merge_stamps(older, newer)`
  /// yields the merged bucket's stamp: the EH keeps the newer end timestamp,
  /// the coarse variant the younger age.
  template <typename MergeStamps>
  void InsertUnits(uint64_t incoming_units, const Stamp& fresh, uint64_t cap,
                   MergeStamps&& merge_stamps) {
    // Fast path: class 0 stays within budget — a pure tail append. Written
    // so that nothing wraps: a huge value cannot wrap a sum into the fast
    // path, and a decoded class 0 above cap (the coarse CEH admits up to
    // 2 * cap + 2) goes to the cascade, which merges it back under cap.
    const uint64_t class0 = num_classes_ == 0 ? 0 : sizes()[0];
    if (class0 <= cap && incoming_units <= cap - class0) {
      // Class 0 is created by the first insert, so an empty store encodes
      // zero classes.
      Reserve(1, incoming_units);
      std::fill_n(stamps() + end_, incoming_units, fresh);
      end_ += static_cast<uint32_t>(incoming_units);
      sizes()[0] = static_cast<ClassSize>(sizes()[0] + incoming_units);
      return;
    }
    CascadeInsert(incoming_units, fresh, cap, merge_stamps);
  }

  /// The block's own invariants, for the owners' audits: head <= end <=
  /// capacity, the directory within its allocation, a block exactly when
  /// anything is allocated, and class sizes summing to the live count.
  Status AuditInvariants() const {
    TDS_AUDIT_CHECK(head_ <= end_ && end_ <= capacity_,
                    "bucket range outside the block");
    TDS_AUDIT_CHECK(num_classes_ <= class_capacity_ && num_classes_ <= 64,
                    "class directory outside the block");
    TDS_AUDIT_CHECK(
        (block_ != nullptr) == (capacity_ > 0 || class_capacity_ > 0),
        "block allocation disagrees with its capacity");
    size_t class_sum = 0;
    for (size_t c = 0; c < num_classes_; ++c) class_sum += sizes()[c];
    TDS_AUDIT_CHECK(class_sum == size(),
                    "class sizes do not sum to the live bucket count");
    return Status::OK();
  }

 private:
  /// Directory entries per allocation step: enough to keep the stamps that
  /// follow the directory aligned without padding.
  static constexpr size_t kClassStep =
      std::max<size_t>(1, alignof(Stamp) / sizeof(ClassSize));
  /// The smallest stamp array a block is given.
  static constexpr size_t kMinStamps = 4;

  static size_t RoundUpClasses(size_t classes) {
    return (classes + kClassStep - 1) / kClassStep * kClassStep;
  }
  static size_t DirectoryBytes(size_t class_capacity) {
    const size_t bytes = class_capacity * sizeof(ClassSize);
    return (bytes + alignof(Stamp) - 1) / alignof(Stamp) * alignof(Stamp);
  }
  /// memcpy of n elements that tolerates the null arrays of an empty store.
  template <typename T>
  static void CopyN(T* dst, const T* src, size_t n) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(T));
  }
  static uint32_t ToIndex(size_t n) {
    TDS_CHECK_LE(n, std::numeric_limits<uint32_t>::max());
    return static_cast<uint32_t>(n);
  }

  ClassSize* sizes() { return reinterpret_cast<ClassSize*>(block_); }
  const ClassSize* sizes() const {
    return reinterpret_cast<const ClassSize*>(block_);
  }
  Stamp* stamps() {
    return reinterpret_cast<Stamp*>(block_ + DirectoryBytes(class_capacity_));
  }
  const Stamp* stamps() const {
    return reinterpret_cast<const Stamp*>(block_ +
                                          DirectoryBytes(class_capacity_));
  }

  void Swap(FlatBucketStore& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(head_, other.head_);
    std::swap(end_, other.end_);
    std::swap(capacity_, other.capacity_);
    std::swap(num_classes_, other.num_classes_);
    std::swap(class_capacity_, other.class_capacity_);
  }

  /// Points the (block-less) store at a fresh block of the given shape.
  void Allocate(size_t class_capacity, uint32_t capacity) {
    TDS_CHECK_LE(class_capacity, 64u);
    class_capacity_ = static_cast<uint8_t>(class_capacity);
    capacity_ = capacity;
    const size_t bytes =
        DirectoryBytes(class_capacity) + size_t{capacity} * sizeof(Stamp);
    block_ = bytes == 0 ? nullptr
                        : static_cast<unsigned char*>(::operator new(bytes));
  }

  /// Moves the directory and the live stamps (to the front) into a block of
  /// the given shape.
  void Reallocate(size_t class_capacity, size_t capacity) {
    unsigned char* const old_block = block_;
    const ClassSize* const old_sizes = sizes();
    const Stamp* const old_live = stamps() + head_;
    const uint32_t live = end_ - head_;
    Allocate(class_capacity, ToIndex(capacity));
    CopyN(sizes(), old_sizes, num_classes_);
    CopyN(stamps(), old_live, live);
    head_ = 0;
    end_ = live;
    ::operator delete(old_block);
  }

  /// Extends the directory to `classes` entries (new classes empty) and
  /// makes room for `n` stamps at the tail, with at most one allocation:
  /// the live stamps slide over the dead prefix if that frees enough and the
  /// directory fits, otherwise the block is replaced by one of the final
  /// shape, grown by half or to fit.
  void Reserve(size_t classes, uint64_t n) {
    const bool directory_fits = classes <= class_capacity_;
    const size_t live = size();
    if (directory_fits && end_ + n <= capacity_) {
      // The block already has the room.
    } else if (directory_fits && live + n <= capacity_) {
      std::memmove(stamps(), stamps() + head_, live * sizeof(Stamp));
      head_ = 0;
      end_ = static_cast<uint32_t>(live);
    } else {
      Reallocate(
          std::max<size_t>(class_capacity_, RoundUpClasses(classes)),
          live + n <= capacity_
              ? capacity_
              : std::max<size_t>({live + n, capacity_ + capacity_ / 2,
                                  kMinStamps}));
    }
    if (classes > num_classes_) {
      std::fill(sizes() + num_classes_, sizes() + classes, ClassSize{0});
      num_classes_ = static_cast<uint8_t>(classes);
    }
  }

  /// Per-class working state for one cascade: a pop cursor over the class's
  /// original segment plus the buckets appended during the cascade (carries
  /// from below, then materialized incoming buckets) with their own pop
  /// cursor — later merges at the same class may consume appended carries,
  /// so the class pops oldest first: original segment, then appended.
  struct ClassWork {
    size_t orig_begin = 0;
    size_t orig_size = 0;
    size_t popped = 0;
    size_t app_taken = 0;
    std::vector<Stamp> app_stamps;
  };

  /// Cascade scratch, shared thread-local rather than member-owned: a
  /// registry holds one store per key, and per-instance scratch (especially
  /// the nested per-class vectors) would both bloat every key by ~10 heap
  /// blocks and drag all of them through the cache on each cold-key
  /// cascade. One thread's scratch stays hot across every store it touches;
  /// mutation already requires exclusive access per store, so per-thread
  /// sharing is race-free.
  struct Scratch {
    std::vector<ClassWork> work;
    std::vector<size_t> seg_offs;
    std::vector<Stamp> carry_stamps;
    std::vector<Stamp> rebuild_stamps;
  };
  static Scratch& TlsScratch() {
    static thread_local Scratch scratch;
    return scratch;
  }

  Stamp PopFront(ClassWork& w) const {
    if (w.popped < w.orig_size) return stamps()[w.orig_begin + w.popped++];
    return w.app_stamps[w.app_taken++];
  }

  template <typename MergeStamps>
  void CascadeInsert(uint64_t incoming_units, const Stamp& fresh,
                     uint64_t cap, MergeStamps&& merge_stamps) {
    TDS_CHECK_LE(cap, kMaxClassBudget);
    Scratch& s = TlsScratch();
    std::vector<ClassWork>& work_ = s.work;
    std::vector<size_t>& seg_offs_ = s.seg_offs;
    std::vector<Stamp>& carry_stamps_ = s.carry_stamps;
    std::vector<Stamp>& rebuild_stamps_ = s.rebuild_stamps;
    // Segment offsets of the classes as they stand (class N-1 at head_).
    seg_offs_.resize(num_classes_);
    {
      size_t pos = head_;
      for (size_t c = num_classes_; c-- > 0;) {
        seg_offs_[c] = pos;
        pos += sizes()[c];
      }
    }
    // Classes created mid-cascade sit above every existing segment and are
    // empty, so their (vacuous) original segment is at head_. The block is
    // left as it is until the cascade's result is known.
    auto init_work = [this, &work_, &seg_offs_](size_t c) {
      while (work_.size() <= c) work_.emplace_back();
      ClassWork& w = work_[c];
      const bool existing = c < num_classes_;
      w.orig_begin = existing ? seg_offs_[c] : head_;
      w.orig_size = existing ? sizes()[c] : 0;
      w.popped = 0;
      w.app_taken = 0;
      w.app_stamps.clear();
    };
    init_work(0);
    // `virtual_new` tracks not-yet-materialized incoming class-i buckets
    // (all stamped `fresh`); real carries — which may inherit older stamps —
    // materialize eagerly.
    uint64_t virtual_new = incoming_units;
    size_t i = 0;
    while (true) {
      ClassWork& w = work_[i];
      const uint64_t real_live =
          (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken);
      const uint64_t total = real_live + virtual_new;
      uint64_t next_virtual = 0;
      carry_stamps_.clear();
      if (total > cap) {
        // Sequential-insertion semantics: a merge fires each time the class
        // reaches cap+1 buckets, pairing its two oldest.
        const uint64_t merges = (total - cap + 1) / 2;
        for (uint64_t m = 0; m < merges; ++m) {
          const size_t real =
              (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken);
          if (real >= 2) {
            const Stamp older = PopFront(w);
            const Stamp newer = PopFront(w);
            carry_stamps_.push_back(merge_stamps(older, newer));
          } else if (real == 1) {
            // One pre-existing bucket pairs with one incoming bucket.
            (void)PopFront(w);
            TDS_CHECK_GE(virtual_new, 1u);
            --virtual_new;
            carry_stamps_.push_back(fresh);
          } else {
            // All remaining merges pair incoming buckets with each other:
            // pure arithmetic, closed out in one step (what keeps huge-value
            // insertion O(log v) instead of O(v)).
            const uint64_t remaining = merges - m;
            TDS_CHECK_GE(virtual_new, 2 * remaining);
            virtual_new -= 2 * remaining;
            next_virtual += remaining;
            break;
          }
        }
      }
      // Materialize the surviving incoming buckets (newest in the class).
      w.app_stamps.insert(w.app_stamps.end(), virtual_new, fresh);
      if (carry_stamps_.empty() && next_virtual == 0) break;
      init_work(i + 1);
      // Carries were produced oldest-first and are newer than everything in
      // class i+1, so appending preserves the ordering invariant.
      ClassWork& up = work_[i + 1];
      up.app_stamps.insert(up.app_stamps.end(), carry_stamps_.begin(),
                           carry_stamps_.end());
      virtual_new = next_virtual;
      ++i;
    }
    // Rebuild the affected suffix (classes i..0) as one compaction sweep;
    // every class above i kept its segment untouched.
    const size_t terminal = i;
    rebuild_stamps_.clear();
    const size_t suffix_offset = work_[terminal].orig_begin - head_;
    for (size_t c = terminal + 1; c-- > 0;) {
      ClassWork& w = work_[c];
      const Stamp* const orig = stamps() + w.orig_begin;
      rebuild_stamps_.insert(rebuild_stamps_.end(), orig + w.popped,
                             orig + w.orig_size);
      rebuild_stamps_.insert(
          rebuild_stamps_.end(),
          w.app_stamps.begin() + static_cast<std::ptrdiff_t>(w.app_taken),
          w.app_stamps.end());
    }
    // Only now may the block move: new classes and the rewritten suffix
    // may need the tail to slide or the block to be replaced.
    end_ = head_ + static_cast<uint32_t>(suffix_offset);
    Reserve(terminal + 1, rebuild_stamps_.size());
    CopyN(stamps() + end_, rebuild_stamps_.data(), rebuild_stamps_.size());
    end_ += static_cast<uint32_t>(rebuild_stamps_.size());
    for (size_t c = 0; c <= terminal; ++c) {
      const ClassWork& w = work_[c];
      sizes()[c] = static_cast<ClassSize>(
          (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken));
    }
  }

  /// Directory then stamps (see the class comment); null until the first
  /// insert or decode.
  unsigned char* block_ = nullptr;
  uint32_t head_ = 0;      ///< Index of the oldest live bucket.
  uint32_t end_ = 0;       ///< One past the newest bucket.
  uint32_t capacity_ = 0;  ///< Stamps the block holds.
  uint8_t num_classes_ = 0;
  uint8_t class_capacity_ = 0;  ///< Directory entries the block holds.
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_FLAT_STORE_H_
