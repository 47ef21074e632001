#ifndef TDS_HISTOGRAM_FLAT_STORE_H_
#define TDS_HISTOGRAM_FLAT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace tds {

/// Contiguous bucket storage for exponential-histogram-shaped structures,
/// after Sun & Li's Flattened EH. A bucket is its stamp alone: its count is
/// implied by its size class (a class-c bucket holds 2^c units, paper
/// Section 4.1), so one stamp array in canonical oldest-first order (highest
/// size class first, class 0 last) plus `class_size_[c]`, which delimits the
/// class segments, is the whole state. `head_` marks the oldest live bucket,
/// so front expiry is an offset bump (a compaction sweep reclaims the dead
/// prefix once it outgrows the live region).
///
/// Why one array suffices: the canonical EH ordering invariant — every
/// bucket of class c is newer than every bucket of class c+1 — means the
/// concatenation class N-1, ..., class 1, class 0 IS the global oldest-first
/// order, so one array plus per-class sizes holds every class.
///
/// Cost model: inserts are tail pushes (vector growth is geometric); a merge
/// cascade that reaches class A rewrites only the array suffix occupied by
/// classes A..0 as one in-place compaction sweep. A merge at class c fires
/// once per ~2^c inserted units, so the amortized insert cost is O(cap),
/// with no per-bucket heap allocation.
///
/// `Stamp` is the per-bucket boundary representation: an exact end tick for
/// the EH/CEH, an ApproxAge for the coarse CEH.
template <typename Stamp>
class FlatBucketStore {
 public:
  size_t num_classes() const { return class_size_.size(); }
  size_t class_size(size_t c) const { return class_size_[c]; }
  /// Live buckets (excludes the not-yet-compacted expired prefix).
  size_t size() const { return stamps_.size() - head_; }
  bool empty() const { return size() == 0; }

  /// Index range of the live buckets, oldest first.
  size_t begin_index() const { return head_; }
  size_t end_index() const { return stamps_.size(); }

  const Stamp& stamp(size_t i) const { return stamps_[i]; }
  Stamp& stamp(size_t i) { return stamps_[i]; }

  void Clear() {
    stamps_.clear();
    class_size_.clear();
    head_ = 0;
  }

  /// Calls f(stamp, count) for every live bucket, oldest to newest: a single
  /// linear scan of the stamps, class segment by class segment.
  template <typename F>
  void ForEachOldestFirst(F&& f) const {
    size_t i = head_;
    for (size_t c = class_size_.size(); c-- > 0;) {
      const uint64_t count = uint64_t{1} << c;
      for (const size_t end = i + class_size_[c]; i < end; ++i) {
        f(stamps_[i], count);
      }
    }
  }

  /// Calls f(c, begin, end) for each class segment in ascending class order
  /// (class 0 — the newest segment, at the array tail — first). The codecs'
  /// wire order and the coarse-CEH RNG sweep are defined by this order.
  template <typename F>
  void ForEachSegmentAscendingClass(F&& f) const {
    size_t end = stamps_.size();
    for (size_t c = 0; c < class_size_.size(); ++c) {
      const size_t begin = end - class_size_[c];
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
  /// first, in one exactly-sized array. Cold path: snapshot decode.
  template <typename ReadClass>
  bool AssignFromAscendingClasses(size_t num_classes, ReadClass&& read_class) {
    Scratch& s = TlsScratch();
    std::vector<Stamp>& wire = s.rebuild_stamps;
    std::vector<size_t>& sizes = s.seg_offs;
    wire.clear();
    sizes.assign(num_classes, 0);
    for (size_t c = 0; c < num_classes; ++c) {
      const size_t before = wire.size();
      if (!read_class(c, wire)) return false;
      sizes[c] = wire.size() - before;
    }
    Clear();
    stamps_.reserve(wire.size());
    class_size_.assign(sizes.begin(), sizes.end());
    size_t end = wire.size();
    for (size_t c = num_classes; c-- > 0;) {
      const auto last = wire.begin() + static_cast<std::ptrdiff_t>(end);
      end -= sizes[c];
      stamps_.insert(stamps_.end(),
                     wire.begin() + static_cast<std::ptrdiff_t>(end), last);
    }
    return true;
  }

  /// Pops buckets off the global front while `expired(stamp)` holds and
  /// returns the total count removed. Canonical ordering makes this one
  /// global front pop equal to per-class front expiry from the highest class
  /// down. `class_size_` keeps its length, because the codecs encode emptied
  /// classes too and a decoded copy must re-encode to the same bytes.
  template <typename Pred>
  uint64_t ExpireOldest(Pred&& expired) {
    uint64_t removed_count = 0;
    for (size_t c = class_size_.size(); c-- > 0;) {
      while (class_size_[c] > 0 && expired(stamps_[head_])) {
        removed_count += uint64_t{1} << c;
        --class_size_[c];
        ++head_;
      }
      if (class_size_[c] > 0) break;
    }
    MaybeCompact();
    return removed_count;
  }

  /// Inserts `incoming_units` unit buckets stamped `fresh` into class 0 and
  /// runs the EH merge cascade (the two oldest buckets of a class merge into
  /// the next while the class exceeds `cap`). Digit arithmetic reproduces
  /// inserting the units one at a time in O(cap * log units) steps.
  /// `merge_stamps(older, newer)` yields the merged bucket's stamp: the EH
  /// keeps the newer end timestamp, the coarse variant the younger age.
  template <typename MergeStamps>
  void InsertUnits(uint64_t incoming_units, const Stamp& fresh, uint64_t cap,
                   MergeStamps&& merge_stamps) {
    // Class 0 is created by the first insert, so an empty store encodes
    // zero classes.
    if (class_size_.empty()) class_size_.push_back(0);
    // Fast path: class 0 stays within budget — a pure tail append.
    if (class_size_[0] + incoming_units <= cap) {
      stamps_.insert(stamps_.end(), incoming_units, fresh);
      class_size_[0] += incoming_units;
      return;
    }
    CascadeInsert(incoming_units, fresh, cap, merge_stamps);
  }

 private:
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

  Stamp PopFront(ClassWork& w) {
    if (w.popped < w.orig_size) return stamps_[w.orig_begin + w.popped++];
    return w.app_stamps[w.app_taken++];
  }

  template <typename MergeStamps>
  void CascadeInsert(uint64_t incoming_units, const Stamp& fresh,
                     uint64_t cap, MergeStamps&& merge_stamps) {
    Scratch& s = TlsScratch();
    std::vector<ClassWork>& work_ = s.work;
    std::vector<size_t>& seg_offs_ = s.seg_offs;
    std::vector<Stamp>& carry_stamps_ = s.carry_stamps;
    std::vector<Stamp>& rebuild_stamps_ = s.rebuild_stamps;
    // Segment offsets of the classes as they stand (class N-1 at head_).
    seg_offs_.resize(class_size_.size());
    {
      size_t pos = head_;
      for (size_t c = class_size_.size(); c-- > 0;) {
        seg_offs_[c] = pos;
        pos += class_size_[c];
      }
    }
    // Classes created mid-cascade sit above every existing segment and are
    // empty, so their (vacuous) original segment is at head_.
    auto init_work = [this, &work_, &seg_offs_](size_t c) {
      while (work_.size() <= c) work_.emplace_back();
      ClassWork& w = work_[c];
      w.orig_begin = c < seg_offs_.size() ? seg_offs_[c] : head_;
      w.orig_size = class_size_[c];
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
      if (i >= class_size_.size()) class_size_.push_back(0);
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
      if (i + 1 >= class_size_.size()) class_size_.push_back(0);
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
    const size_t suffix_begin = work_[terminal].orig_begin;
    for (size_t c = terminal + 1; c-- > 0;) {
      ClassWork& w = work_[c];
      const auto orig = stamps_.begin() + static_cast<std::ptrdiff_t>(
                                              w.orig_begin);
      rebuild_stamps_.insert(rebuild_stamps_.end(),
                             orig + static_cast<std::ptrdiff_t>(w.popped),
                             orig + static_cast<std::ptrdiff_t>(w.orig_size));
      rebuild_stamps_.insert(
          rebuild_stamps_.end(),
          w.app_stamps.begin() + static_cast<std::ptrdiff_t>(w.app_taken),
          w.app_stamps.end());
      class_size_[c] =
          (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken);
    }
    stamps_.resize(suffix_begin);
    stamps_.insert(stamps_.end(), rebuild_stamps_.begin(),
                   rebuild_stamps_.end());
  }

  /// Reclaims the expired prefix once it is at least as large as the live
  /// region — amortized O(1) per expired bucket.
  void MaybeCompact() {
    if (head_ == 0) return;
    if (stamps_.size() - head_ <= head_) {
      stamps_.erase(stamps_.begin(),
                    stamps_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Stamp> stamps_;
  std::vector<size_t> class_size_;
  size_t head_ = 0;
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_FLAT_STORE_H_
