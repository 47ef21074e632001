#include "util/codec.h"

#include <algorithm>

namespace tds {

void Encoder::Grow(size_t n) {
  buffer_.resize(std::max({buffer_.size() * 2, size_ + n, size_t{64}}));
}

bool Decoder::GetVarintSlow(uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t position = position_;
  while (position < data_.size() && shift < 64) {
    const auto byte = static_cast<uint8_t>(data_[position++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      position_ = position;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace tds
