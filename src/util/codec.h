#ifndef TDS_UTIL_CODEC_H_
#define TDS_UTIL_CODEC_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace tds {

/// Minimal binary encoder for structure snapshots: varints (LEB128),
/// zigzag-signed varints, raw 64-bit doubles, and length-prefixed strings.
/// The encoding is platform-independent (little-endian, no padding).
///
/// Fields are written inline: `buffer_` is grown ahead of the write
/// position `size_` (geometrically, out of line), so a varint or a double
/// is a few stores into reserved bytes rather than one library call per
/// byte — the registry codec writes millions of fields per snapshot.
class Encoder {
 public:
  static constexpr size_t kMaxVarintBytes = 10;

  void PutVarint(uint64_t value) {
    char* p = Room(kMaxVarintBytes);
    while (value >= 0x80) {
      *p++ = static_cast<char>((value & 0x7f) | 0x80);
      value >>= 7;
    }
    *p++ = static_cast<char>(value);
    size_ = static_cast<size_t>(p - buffer_.data());
  }

  void PutSigned(int64_t value) {
    // Zigzag encoding.
    PutVarint((static_cast<uint64_t>(value) << 1) ^
              static_cast<uint64_t>(value >> 63));
  }

  void PutDouble(double value) {
    uint64_t bits = std::bit_cast<uint64_t>(value);
    char* p = Room(8);
    for (int i = 0; i < 8; ++i) {
      p[i] = static_cast<char>(bits & 0xff);
      bits >>= 8;
    }
    size_ += 8;
  }

  void PutString(std::string_view value) {
    PutVarint(value.size());
    PutRaw(value);
  }

  /// Appends bytes with no length prefix (a pre-encoded field run).
  void PutRaw(std::string_view bytes) {
    if (bytes.empty()) return;
    bytes.copy(Room(bytes.size()), bytes.size());
    size_ += bytes.size();
  }

  /// Returns the accumulated bytes (the encoder may be reused afterwards).
  std::string Finish() {
    buffer_.resize(size_);
    size_ = 0;
    std::string out = std::move(buffer_);
    buffer_.clear();
    return out;
  }

  /// The bytes written so far; invalidated by the next Put.
  std::string_view view() const { return {buffer_.data(), size_}; }

  /// Forgets the written bytes but keeps the buffer (a reusable scratch).
  void Clear() { size_ = 0; }

  size_t size() const { return size_; }

 private:
  /// Pointer to at least `n` writable bytes at the write position.
  char* Room(size_t n) {
    if (buffer_.size() - size_ < n) Grow(n);
    return buffer_.data() + size_;
  }
  void Grow(size_t n);

  std::string buffer_;  ///< Bytes [0, size_) are written; the rest is room.
  size_t size_ = 0;
};

/// Bytes PutVarint(value) writes.
constexpr size_t VarintLength(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// Matching decoder. All getters return false (and leave the output
/// untouched) on truncated or malformed input; decoding code converts that
/// into Status::InvalidArgument at its API boundary.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool GetVarint(uint64_t* value) {
    // One-byte fast path: most counts, deltas and lengths are < 128.
    if (position_ < data_.size()) {
      const auto byte = static_cast<uint8_t>(data_[position_]);
      if ((byte & 0x80) == 0) {
        *value = byte;
        ++position_;
        return true;
      }
    }
    return GetVarintSlow(value);
  }

  bool GetSigned(int64_t* value) {
    uint64_t raw = 0;
    if (!GetVarint(&raw)) return false;
    *value = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }

  bool GetDouble(double* value) {
    if (remaining() < 8) return false;
    uint64_t bits = 0;
    for (int i = 7; i >= 0; --i) {
      bits = (bits << 8) | static_cast<uint8_t>(data_[position_ + i]);
    }
    position_ += 8;
    *value = std::bit_cast<double>(bits);
    return true;
  }

  /// A length-prefixed string as a view into the decoder's input (no
  /// copy); valid as long as that input is.
  bool GetView(std::string_view* value) {
    uint64_t length = 0;
    if (!GetVarint(&length)) return false;
    if (remaining() < length) return false;
    *value = data_.substr(position_, length);
    position_ += length;
    return true;
  }

  bool GetString(std::string* value) {
    std::string_view view;
    if (!GetView(&view)) return false;
    value->assign(view);
    return true;
  }

  /// True when all input has been consumed.
  bool Done() const { return position_ >= data_.size(); }

  size_t remaining() const { return data_.size() - position_; }

 private:
  bool GetVarintSlow(uint64_t* value);

  std::string_view data_;
  size_t position_ = 0;
};

/// Convenience error for decoders.
inline Status CorruptSnapshot(const char* what) {
  return Status::InvalidArgument(std::string("corrupt snapshot: ") + what);
}

/// The hostile-snapshot funnel: a decoded state whose audit fails is a
/// corrupt snapshot, refused instead of installed.
inline Status RefuseUnaudited(const Status& audit) {
  if (audit.ok()) return audit;
  return Status::InvalidArgument("corrupt snapshot: " + audit.message());
}

}  // namespace tds

#endif  // TDS_UTIL_CODEC_H_
