#ifndef TDS_TESTS_FUZZ_REFERENCE_EH_H_
#define TDS_TESTS_FUZZ_REFERENCE_EH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace tds {

/// Naive exponential histogram, straight from the textbook definition
/// (Datar, Gionis, Indyk & Motwani): per-class lists of {stamp, count}
/// buckets, class c holding buckets of count 2^c, oldest first. Units enter
/// class 0 one at a time, and whenever a class holds more than `cap`
/// buckets its two oldest merge into one bucket of the next class. It
/// shares no code with the library's batched digit-arithmetic cascade, so
/// the fuzz drivers can hold the real structures to it bucket for bucket.
///
/// `Stamp` is the per-bucket boundary: an end tick for the EH, an ApproxAge
/// for the coarse CEH. Callers supply the merge rule for two stamps.
template <typename Stamp>
class ReferenceEh {
 public:
  struct Bucket {
    Stamp stamp;
    uint64_t count = 0;
  };

  explicit ReferenceEh(uint64_t cap) : cap_(cap) {}

  /// Inserts `units` unit buckets stamped `fresh`, one at a time.
  /// `merge(older, newer)` gives the stamp of a merged bucket.
  template <typename Merge>
  void Insert(uint64_t units, const Stamp& fresh, Merge&& merge) {
    for (uint64_t u = 0; u < units; ++u) {
      Push(0, Bucket{fresh, 1});
      for (size_t c = 0; c < classes_.size() && classes_[c].size() > cap_;
           ++c) {
        const Bucket older = classes_[c].front();
        classes_[c].pop_front();
        const Bucket newer = classes_[c].front();
        classes_[c].pop_front();
        Push(c + 1, Bucket{merge(older.stamp, newer.stamp),
                           older.count + newer.count});
      }
    }
  }

  /// Drops the oldest bucket while `expired(stamp)` holds: the oldest
  /// bucket is the front of the highest non-empty class.
  template <typename Pred>
  void ExpireOldest(Pred&& expired) {
    for (size_t c = classes_.size(); c-- > 0;) {
      auto& cls = classes_[c];
      while (!cls.empty() && expired(cls.front().stamp)) cls.pop_front();
      if (!cls.empty()) return;
    }
  }

  /// Calls f(Bucket&) in ascending class order, oldest first in a class.
  template <typename F>
  void ForEachAscendingClass(F&& f) {
    for (auto& cls : classes_) {
      for (Bucket& b : cls) f(b);
    }
  }
  template <typename F>
  void ForEachAscendingClass(F&& f) const {
    for (const auto& cls : classes_) {
      for (const Bucket& b : cls) f(b);
    }
  }

  /// Every bucket, oldest first (highest class first).
  std::vector<Bucket> OldestFirst() const {
    std::vector<Bucket> out;
    for (size_t c = classes_.size(); c-- > 0;) {
      out.insert(out.end(), classes_[c].begin(), classes_[c].end());
    }
    return out;
  }

  /// Replaces the contents with an oldest-first bucket list.
  void Assign(const std::vector<Bucket>& oldest_first) {
    classes_.clear();
    for (const Bucket& b : oldest_first) {
      size_t c = 0;
      while ((uint64_t{1} << c) < b.count) ++c;
      Push(c, b);
    }
  }

  size_t BucketCount() const {
    size_t n = 0;
    for (const auto& cls : classes_) n += cls.size();
    return n;
  }

  uint64_t TotalCount() const {
    uint64_t total = 0;
    ForEachAscendingClass([&total](const Bucket& b) { total += b.count; });
    return total;
  }

 private:
  void Push(size_t c, const Bucket& b) {
    if (c >= classes_.size()) classes_.resize(c + 1);
    classes_[c].push_back(b);
  }

  uint64_t cap_;
  std::vector<std::deque<Bucket>> classes_;
};

}  // namespace tds

#endif  // TDS_TESTS_FUZZ_REFERENCE_EH_H_
