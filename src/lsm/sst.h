// Sorted String Table: block-based on-device format with a per-table bloom
// filter, an index block, and CRC-protected data blocks.
//
// Physical layout (compact bytes in SimFs):
//   [data block 0][crc] ... [data block N][crc]
//   [filter block][index block][meta footer][fixed32 meta len][fixed64 magic]
//
// Data block entries: varint32 key_len | internal_key | varint32 vlen | value
// Index entries:      lenpref last_internal_key | BlockHandle
// BlockHandle:        varint64 offset | varint64 physical | varint64 logical
//
// Every block carries both sizes; reads charge the device at logical bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/value.h"
#include "fs/simfs.h"
#include "lsm/bloom.h"
#include "lsm/cache.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/version.h"

namespace kvaccel::lsm {

struct BlockHandle {
  uint64_t offset = 0;    // physical offset in file
  uint64_t physical = 0;  // physical (stored) bytes, excluding crc trailer
  uint64_t logical = 0;   // device-accounted bytes

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, BlockHandle* out);
};

class SstBuilder {
 public:
  SstBuilder(const DbOptions& options,
             std::unique_ptr<fs::WritableFile> file);

  // Keys must arrive in ascending internal-key order.
  // `entry_logical` is the device-accounted size of this entry.
  Status Add(const Slice& internal_key, const Slice& value_encoding,
             uint64_t entry_logical);
  Status Finish();

  uint64_t logical_size() const { return total_logical_; }
  // The MANIFEST record of the finished table, numbered `number`.
  FileMetaData Meta(uint64_t number) const;

 private:
  Status FlushBlock();

  const DbOptions& options_;
  std::unique_ptr<fs::WritableFile> file_;
  BloomFilter bloom_;
  std::string block_buf_;
  uint64_t block_logical_ = 0;
  uint64_t file_offset_ = 0;  // physical
  std::vector<std::pair<std::string, BlockHandle>> index_;
  std::vector<uint32_t> key_hashes_;
  std::string smallest_, largest_;
  uint64_t num_entries_ = 0;
  uint64_t total_logical_ = 0;
  SequenceNumber max_seq_ = 0;
  bool finished_ = false;
};

class SstReader : public std::enable_shared_from_this<SstReader> {
 public:
  // Opens the table: reads footer, index and filter (device-charged once).
  static Status Open(const DbOptions& options, fs::SimFs* fs,
                     const std::string& filename, uint64_t file_number,
                     BlockCache* cache, std::shared_ptr<SstReader>* reader);

  // Point lookup. On return:
  //  - !found: key not in this table (search older tables);
  //  - found && *type == kValue: *value set;
  //  - found && *type == kDeletion: tombstone.
  Status Get(const ReadOptions& ropts, const Slice& internal_seek_key,
             bool* found, ValueType* type, Value* value,
             SequenceNumber* seq = nullptr);

  std::unique_ptr<Iterator> NewIterator(const ReadOptions& ropts);

  uint64_t num_entries() const { return num_entries_; }
  uint64_t logical_size() const { return total_logical_; }
  Slice smallest() const { return smallest_; }
  Slice largest() const { return largest_; }

  // Routes this reader's data-block reads device-side (NAND only, no PCIe)
  // for NDP-offloaded compaction inputs. The footer/index read in Open has
  // already happened host-side — that is the command-setup metadata the
  // COMPACT descriptor ships anyway.
  void set_device_side(bool v) {
    if (file_ != nullptr) file_->set_device_side(v);
  }

  // Appends the last internal key of every data block — natural split points
  // for range-partitioned subcompactions (blocks are near-equal logical
  // size, so evenly spaced boundaries balance bytes). Costs no device I/O:
  // the index is resident from Open.
  void AppendBlockBoundaries(std::vector<std::string>* keys) const {
    for (const auto& [last_key, handle] : index_) keys->push_back(last_key);
  }

 private:
  friend class SstIterator;
  SstReader(const DbOptions& options, uint64_t file_number, BlockCache* cache)
      : options_(options), file_number_(file_number), cache_(cache),
        bloom_(options.bloom_bits_per_key) {}

  // Loads (possibly from cache) the data block for index position `i`,
  // verifying its CRC when it comes from the device.
  Status ReadBlock(size_t index_pos, const ReadOptions& ropts,
                   std::shared_ptr<BlockCache::Block>* block);
  // Sequential readahead: loads `count` consecutive blocks starting at
  // `first` with a single device read (one access latency for the whole
  // span), parsing and CRC-checking each block.
  Status ReadBlocksRange(size_t first, size_t count,
                         std::vector<std::shared_ptr<BlockCache::Block>>* out);
  // First index position whose block may contain `internal_key`.
  size_t FindBlock(const Slice& internal_key) const;

  const DbOptions& options_;
  uint64_t file_number_;
  BlockCache* cache_;
  BloomFilter bloom_;
  std::unique_ptr<fs::RandomAccessFile> file_;
  std::vector<std::pair<std::string, BlockHandle>> index_;
  std::string filter_;
  std::string smallest_, largest_;
  uint64_t num_entries_ = 0;
  uint64_t total_logical_ = 0;
};

// The one full-content SST scan (DbChecker, the scrubber): reads every entry
// of `table` with block CRCs checked and the block cache bypassed, and fills
// `observed`'s num_entries, max_seq, smallest and largest from what it read.
// Corruption if internal keys are not strictly ascending. Callers compare
// `observed` with the recorded metadata themselves.
Status ScanTable(SstReader* table, FileMetaData* observed);

// Parses the entries of one data block (used by reader and its iterator).
class BlockEntryCursor {
 public:
  explicit BlockEntryCursor(Slice contents) : input_(contents) {}

  // Advances to the next entry; false at end or on corruption.
  bool Next();
  Slice key() const { return key_; }
  Slice value() const { return value_; }
  bool corrupt() const { return corrupt_; }

 private:
  Slice input_;
  Slice key_, value_;
  bool corrupt_ = false;
};

}  // namespace kvaccel::lsm
