// 32/64-bit non-cryptographic hashing used by the bloom filters, block cache
// shards and the KVACCEL metadata manager hash table.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace kvaccel {

// MurmurHash2-style 32-bit hash (LevelDB-compatible shape).
uint32_t Hash32(const char* data, size_t n, uint32_t seed);

// 64-bit avalanche hash (xxhash-like finalizer over 8-byte chunks).
uint64_t Hash64(const char* data, size_t n, uint64_t seed = 0);

inline uint64_t HashSlice64(const Slice& s, uint64_t seed = 0) {
  return Hash64(s.data(), s.size(), seed);
}

}  // namespace kvaccel
