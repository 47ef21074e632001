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
/// `Stamp` is the per-bucket boundary representation: an exact end tick for
/// the EH/CEH, an ApproxAge for the coarse CEH. Tick stamps are stored as
/// 32-bit words, offsets from a base tick in the block's header: a key's
/// live stamps span at most its window (paper Section 4.1 charges
/// ceil(log2(N+1)) bits per stamp). A block whose live stamps would span
/// 2^32 ticks or more (an infinite-horizon decay across a huge tick gap)
/// switches to 64-bit words, marked by the store's width flag, and goes back
/// to narrow words once it empties. ApproxAge stamps are stored as they are.
///
/// Layout: one heap block per store, so a cold key's buckets are one
/// allocation and Prefetch() can request them before the key is touched:
///
///   block_ -> [ base | class_size[0 .. class_capacity) | word[0 .. capacity) ]
///                                                       ^head_    ^end_
///
/// `base` (8 bytes, Tick stamps only) is the tick word 0 stands for; the
/// directory is padded to 8 bytes; a word is 4 bytes, or 8 when `wide_` is
/// set (a Tick store) or an ApproxAge. `head_` marks the oldest live bucket,
/// so front expiry is an offset bump; a store that expiry empties rewinds to
/// the front and reuses its block. Every body that touches words picks the
/// width once per call (WithWords) and runs one templated loop; readers see
/// full stamps.
///
/// Cost model: inserts are tail writes. When the tail is full the live
/// words slide over the dead prefix to the front (O(live), and only once
/// per tail-full); the block grows — by half, or to fit — only when the
/// live buckets fill it. A slide or growth copies every live word anyway,
/// so it also rebases narrow words to the oldest live stamp; an insert the
/// base cannot reach rebases in place first, or widens the block. Tick
/// stamps never decrease oldest first (an insert's stamp is at least the
/// newest, a merge keeps a stamp between its partners, and the EH decoder
/// rejects a blob out of that order), so the first and last live words are
/// the extremes a rebase needs, read without a scan. Up to `cap` incoming
/// units merge in place, in one upward sweep: each class over budget merges
/// its oldest pairs into the end of the class above (whose segment directly
/// precedes it) and closes the gap with one memmove of the suffix below, so
/// a class touched costs O(live) and no scratch. Larger inserts run the
/// digit-arithmetic cascade, O(cap * log units) plus one rebuild of the
/// affected suffix. A merge at class c fires once per ~2^c inserted units,
/// so the amortized insert cost is O(cap), with no per-bucket heap
/// allocation.
template <typename Stamp>
class FlatBucketStore {
  static_assert(std::is_trivially_copyable_v<Stamp>,
                "stamps move by memcpy between blocks");

  /// Tick stamps are offsets from the block's base tick.
  static constexpr bool kOffsetStamps = std::is_same_v<Stamp, Tick>;

 public:
  /// One class segment's stamps, oldest first: `[k]` is the k-th stamp
  /// (a Tick by value, or a reference to a stored ApproxAge).
  template <typename WordPtr>
  struct Segment {
    WordPtr words;
    size_t count;
    uint64_t base;

    size_t size() const { return count; }
    decltype(auto) operator[](size_t k) const {
      if constexpr (kOffsetStamps) {
        return static_cast<Tick>(base + words[k]);
      } else {
        return (words[k]);
      }
    }
  };

  FlatBucketStore() = default;
  /// Copies the live buckets, at the source's width and base, into an
  /// exactly-sized block.
  FlatBucketStore(const FlatBucketStore& other)
      : num_classes_(other.num_classes_), wide_(other.wide_) {
    Allocate(RoundUpClasses(other.num_classes_),
             static_cast<uint32_t>(other.size()));
    if (block_ == nullptr) return;
    std::memcpy(block_, other.block_, kHeaderBytes);
    CopyN(sizes(), other.sizes(), num_classes_);
    CopyN(WordBytesAt(0), other.WordBytesAt(other.head_),
          other.size() * WordBytes());
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
  /// Words the block holds (live, expired prefix and free tail).
  size_t capacity() const { return capacity_; }
  /// Whether the words are 64 bits wide (a Tick store whose live stamps
  /// span 2^32 ticks or more; an ApproxAge store never is).
  bool wide() const { return wide_; }

  /// The tick narrow word 0 stands for (0 for a store without a block).
  Tick base_tick() const { return static_cast<Tick>(base()); }

  /// Index range of the live buckets, oldest first.
  size_t begin_index() const { return head_; }
  size_t end_index() const { return end_; }

  /// Empties the store; the block stays for reuse, at narrow width.
  void Clear() {
    head_ = 0;
    end_ = 0;
    num_classes_ = 0;
    SetEmptyWidth(false);
  }

  /// Requests the block's first two lines — the header and directory, which
  /// every insert and expiry reads first, and the words after them —
  /// without reading the block. A 24-bucket block of narrow words is 112
  /// bytes: on cold_keys the second line made ingest faster in 10 of 10
  /// alternating pairs, where with 64-bit stamps (three or four lines per
  /// block) extra prefetches for the head and tail stamps measured slower
  /// than none. A cold-key stream is bound by line-fill buffers, so no more.
  void Prefetch() const {
    if (block_ != nullptr) {
      TDS_PREFETCH(block_);
      TDS_PREFETCH(block_ + 64);
    }
  }

  /// Calls f(stamp, count) for every live bucket, oldest to newest: a single
  /// linear scan of the words, class segment by class segment.
  template <typename F>
  void ForEachOldestFirst(F&& f) const {
    WithWords([&]<typename Word>(std::type_identity<Word>) {
      const Codec<Word> codec{base()};
      const Word* const words = Words<Word>();
      size_t i = head_;
      for (size_t c = num_classes_; c-- > 0;) {
        const uint64_t count = uint64_t{1} << c;
        for (const size_t end = i + sizes()[c]; i < end; ++i) {
          f(codec.Load(words[i]), count);
        }
      }
    });
  }

  /// Calls f(c, segment) for each class segment in ascending class order
  /// (class 0 — the newest segment, at the array tail — first). The codecs'
  /// wire order and the coarse-CEH RNG sweep are defined by this order. The
  /// non-const overload hands out mutable ApproxAge stamps.
  template <typename F>
  void ForEachSegmentAscendingClass(F&& f) const {
    VisitSegments(*this, f);
  }
  template <typename F>
  void ForEachSegmentAscendingClass(F&& f) {
    VisitSegments(*this, f);
  }

  /// Replaces the contents with buckets given in the codecs' wire order:
  /// `read_class(c, out)` runs for c = 0 .. num_classes - 1 and appends
  /// class c's stamps to `out`, oldest first, returning false to abort (the
  /// store is then unchanged). The stamps collect in the thread's cascade
  /// scratch (idle during a decode) and land canonically, highest class
  /// first, in the store's block — narrow, based at the lowest stamp, unless
  /// the stamps span 2^32 ticks — which is replaced by an exactly-sized one
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
    uint64_t base = 0;
    if constexpr (kOffsetStamps) {
      if (!wire.empty()) {
        const auto [low, high] =
            std::minmax_element(wire.begin(), wire.end());
        base = static_cast<uint64_t>(*low);
        if (SpanOf(*low, *high) > kNarrowSpan) SetEmptyWidth(true);
      }
    }
    if (num_classes > class_capacity_ || wire.size() > capacity_) {
      ::operator delete(block_);
      block_ = nullptr;
      Allocate(RoundUpClasses(num_classes), ToIndex(wire.size()));
    }
    num_classes_ = static_cast<uint8_t>(num_classes);
    if (block_ == nullptr) return true;
    SetBase(base);
    WithWords([&]<typename Word>(std::type_identity<Word>) {
      const Codec<Word> codec{base};
      Word* out = Words<Word>();
      size_t end = wire.size();
      for (size_t c = num_classes; c-- > 0;) {
        sizes()[c] = static_cast<ClassSize>(class_sizes[c]);
        end -= class_sizes[c];
        for (size_t k = 0; k < class_sizes[c]; ++k) {
          *out++ = codec.Store(wire[end + k]);
        }
      }
    });
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
    const uint64_t removed_count =
        WithWords([&]<typename Word>(std::type_identity<Word>) {
          const Codec<Word> codec{base()};
          const Word* const words = Words<Word>();
          ClassSize* const class_sizes = sizes();
          uint64_t removed = 0;
          for (size_t c = num_classes_; c-- > 0;) {
            while (class_sizes[c] > 0 && expired(codec.Load(words[head_]))) {
              removed += uint64_t{1} << c;
              --class_sizes[c];
              ++head_;
            }
            if (class_sizes[c] > 0) break;
          }
          return removed;
        });
    if (head_ == end_) {
      head_ = end_ = 0;
      SetEmptyWidth(false);
    }
    return removed_count;
  }

  /// Inserts `incoming_units` unit buckets stamped `fresh` into class 0 and
  /// runs the EH merge cascade (the two oldest buckets of a class merge into
  /// the next while the class exceeds `cap`, which is at most
  /// kMaxClassBudget), with the result of inserting the units one at a
  /// time. `merge_stamps(older, newer)` yields the merged bucket's stamp:
  /// the EH keeps the newer end timestamp, the coarse variant the younger
  /// age. A Tick `fresh` must be at least the newest live stamp, and a
  /// Tick merge must lie between its partners. Up to `cap` units
  /// merge in place; more run the O(cap * log units) digit arithmetic.
  template <typename MergeStamps>
  void InsertUnits(uint64_t incoming_units, const Stamp& fresh, uint64_t cap,
                   MergeStamps&& merge_stamps) {
    TDS_CHECK_LE(cap, kMaxClassBudget);
    if (incoming_units <= cap) {
      InsertInPlace(incoming_units, fresh, cap, merge_stamps);
    } else {
      CascadeInsert(incoming_units, fresh, cap, merge_stamps);
    }
  }

  /// The block's own invariants, for the owners' audits: head <= end <=
  /// capacity, the directory within its allocation, a block exactly when
  /// anything is allocated, class sizes summing to the live count, and
  /// narrow words whenever the store is empty.
  Status AuditInvariants() const {
    TDS_AUDIT_CHECK(head_ <= end_ && end_ <= capacity_,
                    "bucket range outside the block");
    TDS_AUDIT_CHECK(num_classes_ <= class_capacity_ && num_classes_ <= 64,
                    "class directory outside the block");
    TDS_AUDIT_CHECK(
        (block_ != nullptr) == (capacity_ > 0 || class_capacity_ > 0),
        "block allocation disagrees with its capacity");
    TDS_AUDIT_CHECK(!wide_ || (kOffsetStamps && !empty()),
                    "wide words in an empty or non-tick store");
    size_t class_sum = 0;
    for (size_t c = 0; c < num_classes_; ++c) class_sum += sizes()[c];
    TDS_AUDIT_CHECK(class_sum == size(),
                    "class sizes do not sum to the live bucket count");
    return Status::OK();
  }

 private:
  /// The base tick, ahead of the directory in a Tick store's block.
  static constexpr size_t kHeaderBytes = kOffsetStamps ? sizeof(uint64_t) : 0;
  /// The widest span narrow words cover.
  static constexpr uint64_t kNarrowSpan = std::numeric_limits<uint32_t>::max();
  /// Directory entries per allocation step: enough to keep the words that
  /// follow the directory 8-byte aligned at either width.
  static constexpr size_t kClassStep =
      std::max<size_t>(alignof(uint64_t), alignof(Stamp)) / sizeof(ClassSize);
  /// The smallest word array a block is given.
  static constexpr size_t kMinStamps = 4;

  /// Reads and writes one width's words: a Tick is base + word (mod 2^64),
  /// an ApproxAge is its word.
  template <typename Word>
  struct Codec {
    uint64_t base;

    Stamp Load(Word word) const {
      if constexpr (kOffsetStamps) {
        return static_cast<Tick>(base + word);
      } else {
        return word;
      }
    }
    Word Store(const Stamp& stamp) const {
      if constexpr (kOffsetStamps) {
        return static_cast<Word>(static_cast<uint64_t>(stamp) - base);
      } else {
        return stamp;
      }
    }
  };

  /// Runs f(std::type_identity<Word>{}) for the store's word type: the one
  /// width branch of a call.
  template <typename F>
  decltype(auto) WithWords(F&& f) const {
    if constexpr (kOffsetStamps) {
      if (wide_) return f(std::type_identity<uint64_t>{});
      return f(std::type_identity<uint32_t>{});
    } else {
      return f(std::type_identity<Stamp>{});
    }
  }

  static size_t RoundUpClasses(size_t classes) {
    return (classes + kClassStep - 1) / kClassStep * kClassStep;
  }
  static size_t DirectoryBytes(size_t class_capacity) {
    return class_capacity * sizeof(ClassSize);
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
  /// high - low as an unsigned span (high >= low).
  static uint64_t SpanOf(Tick low, Tick high) {
    return static_cast<uint64_t>(high) - static_cast<uint64_t>(low);
  }

  size_t WordBytes() const {
    if constexpr (kOffsetStamps) return wide_ ? 8 : 4;
    return sizeof(Stamp);
  }
  /// The block address `offset` bytes in, by integer arithmetic: a store
  /// without a block yields an address nothing reads, where pointer
  /// arithmetic on null would be undefined.
  unsigned char* BlockAt(size_t offset) const {
    return reinterpret_cast<unsigned char*>(
        reinterpret_cast<uintptr_t>(block_) + offset);
  }
  unsigned char* WordBytesAt(size_t i) const {
    return BlockAt(kHeaderBytes + DirectoryBytes(class_capacity_) +
                   i * WordBytes());
  }
  template <typename Word>
  Word* Words() const {
    return reinterpret_cast<Word*>(WordBytesAt(0));
  }
  ClassSize* sizes() const {
    return reinterpret_cast<ClassSize*>(BlockAt(kHeaderBytes));
  }
  uint64_t base() const {
    uint64_t base = 0;
    if (kOffsetStamps && block_ != nullptr) {
      std::memcpy(&base, block_, kHeaderBytes);
    }
    return base;
  }
  void SetBase(uint64_t base) {
    if (kOffsetStamps && block_ != nullptr) {
      std::memcpy(block_, &base, kHeaderBytes);
    }
  }

  /// Reinterprets an empty store's block at the given width; the
  /// directory's 8-byte padding keeps the words where they were.
  void SetEmptyWidth(bool wide) {
    if (!kOffsetStamps || wide_ == wide) return;
    wide_ = wide;
    capacity_ = wide ? capacity_ / 2
                     : static_cast<uint32_t>(std::min<uint64_t>(
                           uint64_t{capacity_} * 2,
                           std::numeric_limits<uint32_t>::max()));
  }

  template <typename Self, typename F>
  static void VisitSegments(Self& self, F& f) {
    self.WithWords([&]<typename Word>(std::type_identity<Word>) {
      using WordPtr =
          std::conditional_t<std::is_const_v<Self>, const Word*, Word*>;
      const WordPtr words = self.template Words<Word>();
      const uint64_t base = self.base();
      size_t end = self.end_;
      for (size_t c = 0; c < self.num_classes_; ++c) {
        const size_t begin = end - self.sizes()[c];
        f(c, Segment<WordPtr>{words + begin, end - begin, base});
        end = begin;
      }
      TDS_CHECK(end == self.head_);
    });
  }

  void Swap(FlatBucketStore& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(head_, other.head_);
    std::swap(end_, other.end_);
    std::swap(capacity_, other.capacity_);
    std::swap(num_classes_, other.num_classes_);
    std::swap(class_capacity_, other.class_capacity_);
    std::swap(wide_, other.wide_);
  }

  /// Points the (block-less) store at a fresh block of the given shape, at
  /// the store's width.
  void Allocate(size_t class_capacity, uint32_t capacity) {
    TDS_CHECK_LE(class_capacity, 64u);
    class_capacity_ = static_cast<uint8_t>(class_capacity);
    capacity_ = capacity;
    const size_t bytes =
        class_capacity == 0 && capacity == 0
            ? 0
            : kHeaderBytes + DirectoryBytes(class_capacity) +
                  size_t{capacity} * WordBytes();
    block_ = bytes == 0 ? nullptr
                        : static_cast<unsigned char*>(::operator new(bytes));
  }

  /// Moves the live words to the front of `dst` (which may be the block
  /// itself, at or before the live words) at width `dst_wide`, rebased to
  /// `new_base` when narrow: a byte move unless the words widen or rebase.
  void MoveLive(unsigned char* dst, bool dst_wide, uint64_t new_base) const {
    const size_t n = size();
    if (dst_wide == wide_ && new_base == base()) {
      if (n != 0) std::memmove(dst, WordBytesAt(head_), n * WordBytes());
      return;
    }
    if constexpr (kOffsetStamps) {
      TDS_CHECK(!wide_);  // only an empty store narrows (SetEmptyWidth)
      const uint32_t* const src = Words<uint32_t>() + head_;
      if (dst_wide) {
        auto* const out = reinterpret_cast<uint64_t*>(dst);
        for (size_t i = 0; i < n; ++i) out[i] = src[i];
      } else {
        auto* const out = reinterpret_cast<uint32_t*>(dst);
        const auto delta = static_cast<uint32_t>(base() - new_base);
        for (size_t i = 0; i < n; ++i) {
          out[i] = static_cast<uint32_t>(src[i] + delta);
        }
      }
    }
  }

  /// Moves the directory and the live words (to the front, rebased to
  /// `new_base` when narrow) into a block of the given shape and width.
  void Reallocate(size_t class_capacity, size_t capacity, bool wide,
                  uint64_t new_base) {
    FlatBucketStore fresh;
    fresh.wide_ = wide;
    fresh.Allocate(class_capacity, ToIndex(capacity));
    fresh.num_classes_ = num_classes_;
    CopyN(fresh.sizes(), sizes(), num_classes_);
    MoveLive(fresh.WordBytesAt(0), wide, new_base);
    fresh.end_ = static_cast<uint32_t>(size());
    fresh.SetBase(wide ? base() : new_base);
    Swap(fresh);
  }

  /// Extends the directory to `classes` entries (new classes empty) and
  /// makes room for `n` words at the tail, with at most one allocation:
  /// the live words slide over the dead prefix if that frees enough and the
  /// directory fits, otherwise the block is replaced by one of the final
  /// shape, grown by half or to fit. A Tick store also makes every stamp in
  /// [low, high] storable: a slide or growth rebases narrow words to the
  /// lowest stamp the block will hold, a stamp out of the base's reach
  /// forces that rebase, and a span past 32 bits widens the words.
  void Reserve(size_t classes, uint64_t n, const Stamp& low,
               const Stamp& high) {
    const bool directory_fits = classes <= class_capacity_;
    const size_t live = size();
    const bool fits_tail = directory_fits && end_ + n <= capacity_;
    const bool fits_block = directory_fits && live + n <= capacity_;
    bool wide = wide_;
    uint64_t new_base = base();
    if constexpr (kOffsetStamps) {
      const bool reachable =
          live != 0 &&
          static_cast<uint64_t>(low) - new_base <= kNarrowSpan &&
          static_cast<uint64_t>(high) - new_base <= kNarrowSpan;
      if (!wide_ && (!fits_tail || !reachable)) {
        // Canonical order: the first live word is the oldest stamp and the
        // last the newest.
        Tick lowest = low, highest = high;
        if (live != 0) {
          const uint32_t* const words = Words<uint32_t>();
          lowest = std::min(lowest, static_cast<Tick>(new_base + words[head_]));
          highest =
              std::max(highest, static_cast<Tick>(new_base + words[end_ - 1]));
        }
        if (SpanOf(lowest, highest) <= kNarrowSpan) {
          new_base = static_cast<uint64_t>(lowest);
        } else {
          wide = true;
        }
      }
    }
    const bool rebase = new_base != base();
    if (wide == wide_ && fits_tail) {
      if (rebase) MoveLive(WordBytesAt(head_), wide_, new_base);
    } else if (wide == wide_ && fits_block) {
      MoveLive(WordBytesAt(0), wide_, new_base);
      head_ = 0;
      end_ = static_cast<uint32_t>(live);
    } else {
      Reallocate(
          std::max<size_t>(class_capacity_, RoundUpClasses(classes)),
          live + n <= capacity_
              ? capacity_
              : std::max<size_t>({live + n, capacity_ + capacity_ / 2,
                                  kMinStamps}),
          wide, new_base);
    }
    if (rebase && !wide_) SetBase(new_base);
    if (classes > num_classes_) {
      std::fill(sizes() + num_classes_, sizes() + classes, ClassSize{0});
      num_classes_ = static_cast<uint8_t>(classes);
    }
  }

  /// Up to `cap` units, merged in place by one upward sweep. At each class
  /// over `cap`, its (total - cap + 1) / 2 oldest pairs merge (the
  /// cascade's sequential-insertion count): carry k lands in the class's
  /// k-th slot, which extends the class above (whose segment ends where
  /// this one begins), and one memmove closes the gap under the suffix
  /// below. Class 0 reads the incoming units as `fresh` and writes only
  /// those that survive, so the block needs room for the net growth alone.
  /// As in the cascade, a merge whose newer partner was born of incoming
  /// units yields `fresh` without calling merge_stamps.
  template <typename MergeStamps>
  void InsertInPlace(uint64_t incoming_units, const Stamp& fresh,
                     uint64_t cap, MergeStamps& merge_stamps) {
    // Class 0's merges and the class count after the sweep, from counts
    // alone, so the directory and the room are in place before any word
    // moves.
    const uint64_t class0 = num_classes_ == 0 ? 0 : sizes()[0];
    const uint64_t merges0 = class0 + incoming_units > cap
                                 ? (class0 + incoming_units - cap + 1) / 2
                                 : 0;
    size_t classes = std::max<size_t>(num_classes_, 1);
    for (size_t c = 0, total = class0 + incoming_units; total > cap; ++c) {
      TDS_CHECK_LT(c + 1, 64u);
      classes = std::max(classes, c + 2);
      total = (c + 1 < num_classes_ ? sizes()[c + 1] : 0) +
              (total - cap + 1) / 2;
    }
    Reserve(classes, incoming_units - std::min(incoming_units, merges0),
            fresh, fresh);
    WithWords([&]<typename Word>(std::type_identity<Word>) {
      const Codec<Word> codec{base()};
      Word* const words = Words<Word>();
      const Word fresh_word = codec.Store(fresh);
      ClassSize* const class_sizes = sizes();
      // Class c holds `total` buckets: `stored` words ending at `seg_end`,
      // then the incoming units not yet written (class 0 only). The last
      // `fresh_born` of them were born of incoming units.
      size_t seg_end = end_;
      uint64_t total = class0 + incoming_units;
      uint64_t stored = class0;
      uint64_t fresh_born = incoming_units;
      for (size_t c = 0;; ++c) {
        if (total <= cap) {
          std::fill_n(words + end_, total - stored, fresh_word);
          end_ += static_cast<uint32_t>(total - stored);
          class_sizes[c] = static_cast<ClassSize>(total);
          break;
        }
        const size_t seg_begin = seg_end - stored;
        const uint64_t merges = (total - cap + 1) / 2;
        const uint64_t settled = total - fresh_born;
        uint64_t carried_fresh_born = 0;
        for (uint64_t k = 0; k < merges; ++k) {
          Word merged = fresh_word;
          if (2 * k + 1 < settled) {
            const size_t older = seg_begin + 2 * k;
            merged = codec.Store(merge_stamps(codec.Load(words[older]),
                                              codec.Load(words[older + 1])));
          } else if (2 * k >= settled) {
            ++carried_fresh_born;
          }
          words[seg_begin + k] = merged;
        }
        // The class's stored survivors and every class below follow the
        // carries; class 0's unwritten survivors land after them.
        const size_t gap_end = seg_begin + std::min(2 * merges, stored);
        std::memmove(words + seg_begin + merges, words + gap_end,
                     (end_ - gap_end) * sizeof(Word));
        end_ -= static_cast<uint32_t>(gap_end - (seg_begin + merges));
        const uint64_t unwritten =
            total - 2 * merges - (stored - (gap_end - seg_begin));
        std::fill_n(words + end_, unwritten, fresh_word);
        end_ += static_cast<uint32_t>(unwritten);
        class_sizes[c] = static_cast<ClassSize>(total - 2 * merges);
        seg_end = seg_begin + merges;
        total = class_sizes[c + 1] + merges;
        stored = total;
        fresh_born = carried_fresh_born;
      }
    });
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

  /// More than `cap` units: digit arithmetic reproduces inserting them one
  /// at a time in O(cap * log units) steps, reading the classes it reaches
  /// in place, then rewrites the affected suffix.
  template <typename MergeStamps>
  void CascadeInsert(uint64_t incoming_units, const Stamp& fresh,
                     uint64_t cap, MergeStamps& merge_stamps) {
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
    const size_t terminal =
        WithWords([&]<typename Word>(std::type_identity<Word>) {
          const Codec<Word> codec{base()};
          const Word* const words = Words<Word>();
          auto pop_front = [&](ClassWork& w) {
            if (w.popped < w.orig_size) {
              return codec.Load(words[w.orig_begin + w.popped++]);
            }
            return w.app_stamps[w.app_taken++];
          };
          init_work(0);
          // `virtual_new` tracks not-yet-materialized incoming class-i
          // buckets (all stamped `fresh`); real carries — which may inherit
          // older stamps — materialize eagerly.
          uint64_t virtual_new = incoming_units;
          size_t i = 0;
          while (true) {
            ClassWork& w = work_[i];
            const uint64_t real_live = (w.orig_size - w.popped) +
                                       (w.app_stamps.size() - w.app_taken);
            const uint64_t total = real_live + virtual_new;
            uint64_t next_virtual = 0;
            carry_stamps_.clear();
            if (total > cap) {
              // Sequential-insertion semantics: a merge fires each time the
              // class reaches cap+1 buckets, pairing its two oldest.
              const uint64_t merges = (total - cap + 1) / 2;
              for (uint64_t m = 0; m < merges; ++m) {
                const size_t real = (w.orig_size - w.popped) +
                                    (w.app_stamps.size() - w.app_taken);
                if (real >= 2) {
                  const Stamp older = pop_front(w);
                  const Stamp newer = pop_front(w);
                  carry_stamps_.push_back(merge_stamps(older, newer));
                } else if (real == 1) {
                  // One pre-existing bucket pairs with one incoming bucket.
                  (void)pop_front(w);
                  TDS_CHECK_GE(virtual_new, 1u);
                  --virtual_new;
                  carry_stamps_.push_back(fresh);
                } else {
                  // All remaining merges pair incoming buckets with each
                  // other: pure arithmetic, closed out in one step (what
                  // keeps huge-value insertion O(log v) instead of O(v)).
                  const uint64_t remaining = merges - m;
                  TDS_CHECK_GE(virtual_new, 2 * remaining);
                  virtual_new -= 2 * remaining;
                  next_virtual += remaining;
                  break;
                }
              }
            }
            // Materialize the surviving incoming buckets (newest in the
            // class).
            w.app_stamps.insert(w.app_stamps.end(), virtual_new, fresh);
            if (carry_stamps_.empty() && next_virtual == 0) break;
            init_work(i + 1);
            // Carries were produced oldest-first and are newer than
            // everything in class i+1, so appending preserves the ordering
            // invariant.
            ClassWork& up = work_[i + 1];
            up.app_stamps.insert(up.app_stamps.end(), carry_stamps_.begin(),
                                 carry_stamps_.end());
            virtual_new = next_virtual;
            ++i;
          }
          // Rebuild the affected suffix (classes i..0) as one compaction
          // sweep; every class above i kept its segment untouched.
          size_t rebuilt = 0;
          for (size_t c = 0; c <= i; ++c) {
            const ClassWork& w = work_[c];
            rebuilt += (w.orig_size - w.popped) +
                       (w.app_stamps.size() - w.app_taken);
          }
          rebuild_stamps_.resize(rebuilt);
          Stamp* out = rebuild_stamps_.data();
          for (size_t c = i + 1; c-- > 0;) {
            const ClassWork& w = work_[c];
            for (size_t k = w.popped; k < w.orig_size; ++k) {
              *out++ = codec.Load(words[w.orig_begin + k]);
            }
            out = std::copy(w.app_stamps.begin() +
                                static_cast<std::ptrdiff_t>(w.app_taken),
                            w.app_stamps.end(), out);
          }
          return i;
        });
    // Only now may the block move: new classes and the rewritten suffix
    // may need the tail to slide, the words to rebase or widen, or the
    // block to be replaced. Every rebuilt stamp is a live one, `fresh`, or
    // a merge between two of those, so room made with the old suffix still
    // live keeps them all storable.
    const size_t suffix_offset = work_[terminal].orig_begin - head_;
    const size_t rebuilt = rebuild_stamps_.size();
    const size_t old_suffix = end_ - work_[terminal].orig_begin;
    Reserve(terminal + 1, rebuilt - std::min(rebuilt, old_suffix), fresh,
            fresh);
    end_ = head_ + static_cast<uint32_t>(suffix_offset);
    WithWords([&]<typename Word>(std::type_identity<Word>) {
      const Codec<Word> codec{base()};
      Word* const out = Words<Word>() + end_;
      for (size_t k = 0; k < rebuild_stamps_.size(); ++k) {
        out[k] = codec.Store(rebuild_stamps_[k]);
      }
    });
    end_ += static_cast<uint32_t>(rebuild_stamps_.size());
    for (size_t c = 0; c <= terminal; ++c) {
      const ClassWork& w = work_[c];
      sizes()[c] = static_cast<ClassSize>(
          (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken));
    }
  }

  /// Header, directory, then words (see the class comment); null until the
  /// first insert or decode.
  unsigned char* block_ = nullptr;
  uint32_t head_ = 0;      ///< Index of the oldest live bucket.
  uint32_t end_ = 0;       ///< One past the newest bucket.
  uint32_t capacity_ = 0;  ///< Words the block holds.
  uint8_t num_classes_ = 0;
  uint8_t class_capacity_ = 0;  ///< Directory entries the block holds.
  bool wide_ = false;           ///< 64-bit words (Tick stores only).
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_FLAT_STORE_H_
