// Value: the unit stored against a key. Two representations share one API:
//
//  - Inline:    real bytes, used by the public API, tests and examples.
//  - Synthetic: a (seed, logical_size) descriptor that regenerates its bytes
//               deterministically on demand. Used by the benchmark harness to
//               model the paper's 4 KB values without moving/storing 4 KB per
//               op. All device/PCIe/CPU *accounting* uses logical_size(), so
//               every bandwidth and stall dynamic matches a real-bytes run.
//
// The distinction is invisible to the LSM layers: they store the compact
// encoding and account logical bytes. DESIGN.md §1 documents the substitution.
#pragma once

#include <cstdint>
#include <string>

#include "common/slice.h"

namespace kvaccel {

class Value {
 public:
  Value() = default;

  static Value Inline(std::string bytes) {
    Value v;
    v.kind_ = Kind::kInline;
    v.bytes_ = std::move(bytes);
    return v;
  }

  static Value InlineFrom(const Slice& bytes) {
    return Inline(bytes.ToString());
  }

  static Value Synthetic(uint64_t seed, uint32_t logical_size) {
    Value v;
    v.kind_ = Kind::kSynthetic;
    v.seed_ = seed;
    v.synthetic_size_ = logical_size;
    return v;
  }

  bool is_inline() const { return kind_ == Kind::kInline; }
  bool is_synthetic() const { return kind_ == Kind::kSynthetic; }

  // Bytes this value represents on the wire / on NAND (drives all bandwidth
  // and capacity accounting).
  uint64_t logical_size() const {
    return is_inline() ? bytes_.size() : synthetic_size_;
  }

  uint64_t seed() const { return seed_; }

  // Inline bytes; only valid for inline values.
  const std::string& inline_bytes() const { return bytes_; }

  // Regenerates the full byte payload (identity for inline values).
  std::string Materialize() const;

  // Compact on-disk / in-memtable encoding.
  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, Value* out);
  static Value DecodeOrDie(Slice encoded);

  bool operator==(const Value& o) const {
    if (kind_ != o.kind_) return Materialize() == o.Materialize();
    if (is_inline()) return bytes_ == o.bytes_;
    return seed_ == o.seed_ && synthetic_size_ == o.synthetic_size_;
  }
  bool operator!=(const Value& o) const { return !(*this == o); }

 private:
  enum class Kind : uint8_t { kInline = 0, kSynthetic = 1 };

  Kind kind_ = Kind::kInline;
  std::string bytes_;
  uint64_t seed_ = 0;
  uint32_t synthetic_size_ = 0;
};

// One version of one key, as it moves between the layers: a redirected
// write on its way into the Dev-LSM, a pair streamed out of a Dev-LSM bulk
// scan, a sorted batch ingested into the Main-LSM, a redirect intent on the
// replication link. `seq` comes from the Main-LSM sequence space (0 when the
// writer supplied none); a tombstone carries no value.
struct VersionedEntry {
  std::string key;
  Value value;
  bool tombstone = false;
  uint64_t seq = 0;
};

}  // namespace kvaccel
