// WriteBatch: the unit of atomic ingestion. Groups Puts/Deletes, carries
// their logical size, serializes into a WAL payload, and replays into a
// memtable with consecutive sequence numbers (also the WAL recovery path).
#pragma once

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/value.h"
#include "lsm/dbformat.h"
#include "lsm/memtable.h"

namespace kvaccel::lsm {

class WriteBatch {
 public:
  WriteBatch();

  void Put(const Slice& key, const Value& value);
  void Delete(const Slice& key);
  void Clear();

  // Appends every entry of `other` to this batch (group-commit coalescing).
  // The merged batch keeps this batch's sequence slot; entry order is this
  // batch's entries followed by `other`'s.
  void Append(const WriteBatch& other);

  uint32_t Count() const;
  // Logical bytes of all entries (keys + full value sizes + trailers).
  uint64_t LogicalSize() const { return logical_size_; }
  // Serialized payload (compact encoding) for WAL/replay.
  const std::string& Contents() const { return rep_; }

  // Sets the sequence number of the first entry. A successful DB::Write
  // sets it on every batch it commits, grouped or not.
  void SetSequence(SequenceNumber seq);
  SequenceNumber Sequence() const;

  // Applies every entry to `mem` with sequence numbers Sequence()..+Count-1.
  Status InsertInto(MemTable* mem) const;

  // Rebuilds a batch from a serialized payload (WAL recovery).
  static Status ParseFrom(const Slice& payload, WriteBatch* batch);

  // Walks entries without a memtable; `fn(type, key, value)` per entry.
  template <typename Fn>
  Status ForEach(Fn fn) const {
    Slice input(rep_);
    if (input.size() < kHeaderSize) return Status::Corruption("batch header");
    input.remove_prefix(kHeaderSize);
    uint32_t count = Count();
    for (uint32_t i = 0; i < count; i++) {
      if (input.empty()) return Status::Corruption("batch short");
      auto type = static_cast<ValueType>(input[0]);
      input.remove_prefix(1);
      Slice key;
      if (!GetLengthPrefixedSlice(&input, &key)) {
        return Status::Corruption("batch key");
      }
      Value value;
      if (type == ValueType::kValue) {
        if (!Value::DecodeFrom(&input, &value)) {
          return Status::Corruption("batch value");
        }
      }
      fn(type, key, value);
    }
    return input.empty() ? Status::OK() : Status::Corruption("batch trailer");
  }

 private:
  static constexpr size_t kHeaderSize = 12;  // fixed64 seq + fixed32 count

  std::string rep_;
  uint64_t logical_size_ = 0;
};

}  // namespace kvaccel::lsm
