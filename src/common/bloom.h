// Bloom filter policy (double-hashing variant) over user-key hashes. The one
// filter implementation: SSTs build one per table to protect point lookups,
// and the Dev-LSM keeps one per run in device DRAM (DESIGN.md §25).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"

namespace kvaccel {

// Bits per user key of every filter (~1% false positives, 6 probes).
constexpr int kBloomBitsPerKey = 10;

class BloomFilter {
 public:
  // k = ln(2) * bits/key rounded down, clamped to a sane range.
  explicit constexpr BloomFilter(int bits_per_key)
      : bits_per_key_(bits_per_key),
        k_(std::clamp(static_cast<int>(bits_per_key * 0.69), 1, 30)) {}

  // Appends the filter bytes for the given key hashes (HashKey of user
  // keys) to `dst`.
  void CreateFilter(const std::vector<uint32_t>& key_hashes,
                    std::string* dst) const;

  // False only if no key with this hash went into `filter`; a degenerate
  // filter (fewer than two bytes, e.g. empty) cannot exclude anything.
  bool KeyMayMatch(uint32_t key_hash, const Slice& filter) const;

  static uint32_t HashKey(const Slice& user_key);

 private:
  int bits_per_key_;
  int k_;  // number of probes
};

}  // namespace kvaccel
