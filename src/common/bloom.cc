#include "common/bloom.h"

#include "common/hash.h"

namespace kvaccel {

uint32_t BloomFilter::HashKey(const Slice& user_key) {
  return Hash32(user_key.data(), user_key.size(), 0xbc9f1d34);
}

void BloomFilter::CreateFilter(const std::vector<uint32_t>& key_hashes,
                               std::string* dst) const {
  size_t bits = key_hashes.size() * static_cast<size_t>(bits_per_key_);
  bits = std::max<size_t>(bits, 64);
  size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  const size_t init_size = dst->size();
  dst->resize(init_size + bytes, 0);
  dst->push_back(static_cast<char>(k_));  // remember probe count
  char* array = dst->data() + init_size;
  for (uint32_t h : key_hashes) {
    uint32_t delta = (h >> 17) | (h << 15);  // double hashing
    for (int j = 0; j < k_; j++) {
      uint32_t bitpos = h % bits;
      array[bitpos / 8] |= static_cast<char>(1 << (bitpos % 8));
      h += delta;
    }
  }
}

bool BloomFilter::KeyMayMatch(uint32_t h, const Slice& filter) const {
  if (filter.size() < 2) return true;  // degenerate: cannot exclude
  const size_t bits = (filter.size() - 1) * 8;
  const int k = filter[filter.size() - 1];
  if (k > 30) return true;  // reserved for future encodings
  uint32_t delta = (h >> 17) | (h << 15);
  for (int j = 0; j < k; j++) {
    uint32_t bitpos = h % bits;
    if ((filter[bitpos / 8] & (1 << (bitpos % 8))) == 0) return false;
    h += delta;
  }
  return true;
}

}  // namespace kvaccel
