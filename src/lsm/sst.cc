#include "lsm/sst.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/crc32c.h"

namespace kvaccel::lsm {

namespace {
constexpr uint64_t kTableMagic = 0x6b766163636c5353ull;  // "kvaccSS"
}

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, physical);
  PutVarint64(dst, logical);
}

bool BlockHandle::DecodeFrom(Slice* input, BlockHandle* out) {
  return GetVarint64(input, &out->offset) &&
         GetVarint64(input, &out->physical) &&
         GetVarint64(input, &out->logical);
}

// ---------------- SstBuilder ----------------

SstBuilder::SstBuilder(const DbOptions& options,
                       std::unique_ptr<fs::WritableFile> file)
    : options_(options), file_(std::move(file)),
      bloom_(options.bloom_bits_per_key) {}

Status SstBuilder::Add(const Slice& internal_key, const Slice& value_encoding,
                       uint64_t entry_logical) {
  assert(!finished_);
  if (smallest_.empty()) smallest_.assign(internal_key.data(),
                                          internal_key.size());
  largest_.assign(internal_key.data(), internal_key.size());

  PutVarint32(&block_buf_, static_cast<uint32_t>(internal_key.size()));
  block_buf_.append(internal_key.data(), internal_key.size());
  PutVarint32(&block_buf_, static_cast<uint32_t>(value_encoding.size()));
  block_buf_.append(value_encoding.data(), value_encoding.size());

  key_hashes_.push_back(BloomFilter::HashKey(ExtractUserKey(internal_key)));
  max_seq_ = std::max(max_seq_, ExtractSequence(internal_key));
  block_logical_ += entry_logical;
  total_logical_ += entry_logical;
  num_entries_++;

  if (block_logical_ >= options_.block_size) return FlushBlock();
  return Status::OK();
}

Status SstBuilder::FlushBlock() {
  if (block_buf_.empty()) return Status::OK();
  uint32_t crc = crc32c::Value(block_buf_.data(), block_buf_.size());
  BlockHandle handle;
  handle.offset = file_offset_;
  handle.physical = block_buf_.size();
  handle.logical = block_logical_;
  index_.emplace_back(largest_, handle);

  Status s = file_->Append(block_buf_, block_logical_);
  if (!s.ok()) return s;
  std::string trailer;
  PutFixed32(&trailer, crc32c::Mask(crc));
  s = file_->Append(trailer, trailer.size());
  if (!s.ok()) return s;

  file_offset_ += block_buf_.size() + trailer.size();
  block_buf_.clear();
  block_logical_ = 0;
  return Status::OK();
}

Status SstBuilder::Finish() {
  assert(!finished_);
  finished_ = true;
  Status s = FlushBlock();
  if (!s.ok()) return s;

  // Filter block.
  std::string filter;
  bloom_.CreateFilter(key_hashes_, &filter);
  uint64_t filter_offset = file_offset_;
  s = file_->Append(filter, filter.size());
  if (!s.ok()) return s;
  file_offset_ += filter.size();

  // Index block.
  std::string index;
  PutVarint32(&index, static_cast<uint32_t>(index_.size()));
  for (const auto& [last_key, handle] : index_) {
    PutLengthPrefixedSlice(&index, last_key);
    handle.EncodeTo(&index);
  }
  uint64_t index_offset = file_offset_;
  s = file_->Append(index, index.size());
  if (!s.ok()) return s;
  file_offset_ += index.size();

  // Meta footer.
  std::string meta;
  PutVarint64(&meta, filter_offset);
  PutVarint64(&meta, filter.size());
  PutVarint64(&meta, index_offset);
  PutVarint64(&meta, index.size());
  PutVarint64(&meta, num_entries_);
  PutVarint64(&meta, total_logical_);
  PutLengthPrefixedSlice(&meta, smallest_);
  PutLengthPrefixedSlice(&meta, largest_);
  s = file_->Append(meta, meta.size());
  if (!s.ok()) return s;

  std::string tail;
  PutFixed32(&tail, static_cast<uint32_t>(meta.size()));
  PutFixed64(&tail, kTableMagic);
  s = file_->Append(tail, tail.size());
  if (!s.ok()) return s;
  // SSTs are synced before being installed (RocksDB use_fsync behaviour);
  // this is also what puts flush/compaction writes on the device.
  s = file_->Sync();
  if (!s.ok()) return s;
  return file_->Close();
}

FileMetaData SstBuilder::Meta(uint64_t number) const {
  return {.number = number, .logical_size = total_logical_,
          .num_entries = num_entries_, .max_seq = max_seq_,
          .smallest = smallest_, .largest = largest_};
}

// ---------------- SstReader ----------------

Status SstReader::Open(const DbOptions& options, fs::SimFs* fs,
                       const std::string& filename, uint64_t file_number,
                       BlockCache* cache, std::shared_ptr<SstReader>* reader) {
  auto r = std::shared_ptr<SstReader>(
      new SstReader(options, file_number, cache));
  Status s = fs->NewRandomAccessFile(filename, &r->file_);
  if (!s.ok()) return s;
  uint64_t physical = r->file_->physical_size();
  if (physical < 12) return Status::Corruption("sst too small");

  std::string tail;
  s = r->file_->Read(physical - 12, 12, &tail);
  if (!s.ok()) return s;
  uint32_t meta_len = DecodeFixed32(tail.data());
  uint64_t magic = DecodeFixed64(tail.data() + 4);
  if (magic != kTableMagic) return Status::Corruption("bad sst magic");
  if (physical < 12 + meta_len) return Status::Corruption("bad sst meta len");

  std::string meta;
  s = r->file_->Read(physical - 12 - meta_len, meta_len, &meta);
  if (!s.ok()) return s;
  Slice in(meta);
  uint64_t filter_offset, filter_size, index_offset, index_size;
  Slice smallest, largest;
  if (!GetVarint64(&in, &filter_offset) || !GetVarint64(&in, &filter_size) ||
      !GetVarint64(&in, &index_offset) || !GetVarint64(&in, &index_size) ||
      !GetVarint64(&in, &r->num_entries_) ||
      !GetVarint64(&in, &r->total_logical_) ||
      !GetLengthPrefixedSlice(&in, &smallest) ||
      !GetLengthPrefixedSlice(&in, &largest)) {
    return Status::Corruption("bad sst meta");
  }
  r->smallest_ = smallest.ToString();
  r->largest_ = largest.ToString();

  s = r->file_->Read(filter_offset, filter_size, &r->filter_);
  if (!s.ok()) return s;

  std::string index;
  s = r->file_->Read(index_offset, index_size, &index);
  if (!s.ok()) return s;
  Slice iin(index);
  uint32_t n;
  if (!GetVarint32(&iin, &n)) return Status::Corruption("bad sst index");
  r->index_.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice last_key;
    BlockHandle handle;
    if (!GetLengthPrefixedSlice(&iin, &last_key) ||
        !BlockHandle::DecodeFrom(&iin, &handle)) {
      return Status::Corruption("bad sst index entry");
    }
    r->index_.emplace_back(last_key.ToString(), handle);
  }
  *reader = std::move(r);
  return Status::OK();
}

size_t SstReader::FindBlock(const Slice& internal_key) const {
  InternalKeyComparator cmp;
  // First block whose last key is >= internal_key.
  size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cmp.Compare(Slice(index_[mid].first), internal_key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status SstReader::ReadBlock(size_t index_pos, const ReadOptions& ropts,
                            std::shared_ptr<BlockCache::Block>* block) {
  const BlockHandle& handle = index_[index_pos].second;
  if (cache_ != nullptr) {
    auto cached = cache_->Lookup(file_number_, handle.offset);
    if (cached != nullptr) {
      *block = std::move(cached);
      return Status::OK();
    }
  }
  auto fresh = std::make_shared<BlockCache::Block>();
  fresh->logical = handle.logical;
  Status s = file_->Read(handle.offset, handle.physical, &fresh->physical);
  if (!s.ok()) return s;
  if (fresh->physical.size() != handle.physical) {
    return Status::Corruption("short block read");
  }
  std::string crc_bytes;
  s = file_->Read(handle.offset + handle.physical, 4, &crc_bytes);
  if (!s.ok()) return s;
  uint32_t expected = crc32c::Unmask(DecodeFixed32(crc_bytes.data()));
  if (expected !=
      crc32c::Value(fresh->physical.data(), fresh->physical.size())) {
    return Status::Corruption("block checksum mismatch");
  }
  if (cache_ != nullptr && ropts.fill_cache) {
    cache_->Insert(file_number_, handle.offset, fresh);
  }
  *block = std::move(fresh);
  return Status::OK();
}

Status SstReader::ReadBlocksRange(
    size_t first, size_t count,
    std::vector<std::shared_ptr<BlockCache::Block>>* out) {
  out->clear();
  if (first >= index_.size()) return Status::OK();
  count = std::min(count, index_.size() - first);
  // Data blocks are laid out back-to-back (block + 4-byte crc trailer), so
  // the whole span is one contiguous physical read.
  const BlockHandle& head = index_[first].second;
  const BlockHandle& tail = index_[first + count - 1].second;
  uint64_t span = tail.offset + tail.physical + 4 - head.offset;
  std::string buf;
  Status s = file_->Read(head.offset, span, &buf);
  if (!s.ok()) return s;
  for (size_t i = 0; i < count; i++) {
    const BlockHandle& h = index_[first + i].second;
    uint64_t rel = h.offset - head.offset;
    if (rel + h.physical + 4 > buf.size()) {
      return Status::Corruption("readahead span short");
    }
    auto block = std::make_shared<BlockCache::Block>();
    block->logical = h.logical;
    block->physical.assign(buf, rel, h.physical);
    uint32_t expected =
        crc32c::Unmask(DecodeFixed32(buf.data() + rel + h.physical));
    if (expected !=
        crc32c::Value(block->physical.data(), block->physical.size())) {
      return Status::Corruption("block checksum mismatch");
    }
    out->push_back(std::move(block));
  }
  return Status::OK();
}

Status SstReader::Get(const ReadOptions& ropts, const Slice& seek_key,
                      bool* found, ValueType* type, Value* value,
                      SequenceNumber* seq) {
  *found = false;
  InternalKeyComparator cmp;
  Slice user_key = ExtractUserKey(seek_key);
  if (!bloom_.KeyMayMatch(BloomFilter::HashKey(user_key), filter_)) {
    return Status::OK();
  }
  size_t pos = FindBlock(seek_key);
  if (pos == index_.size()) return Status::OK();
  std::shared_ptr<BlockCache::Block> block;
  Status s = ReadBlock(pos, ropts, &block);
  if (!s.ok()) return s;

  BlockEntryCursor cur(block->physical);
  while (cur.Next()) {
    if (cmp.Compare(cur.key(), seek_key) < 0) continue;
    if (ExtractUserKey(cur.key()) != user_key) return Status::OK();
    *found = true;
    *type = ExtractValueType(cur.key());
    if (seq != nullptr) *seq = ExtractSequence(cur.key());
    if (*type == ValueType::kValue) {
      Slice v = cur.value();
      if (!Value::DecodeFrom(&v, value)) {
        return Status::Corruption("bad value encoding");
      }
    }
    return Status::OK();
  }
  if (cur.corrupt()) return Status::Corruption("bad block entry");
  return Status::OK();
}

// ---------------- BlockEntryCursor ----------------

bool BlockEntryCursor::Next() {
  if (input_.empty() || corrupt_) return false;
  uint32_t klen;
  if (!GetVarint32(&input_, &klen) || input_.size() < klen) {
    corrupt_ = true;
    return false;
  }
  key_ = Slice(input_.data(), klen);
  input_.remove_prefix(klen);
  uint32_t vlen;
  if (!GetVarint32(&input_, &vlen) || input_.size() < vlen) {
    corrupt_ = true;
    return false;
  }
  value_ = Slice(input_.data(), vlen);
  input_.remove_prefix(vlen);
  return true;
}

// ---------------- SstIterator ----------------

class SstIterator : public Iterator {
 public:
  SstIterator(std::shared_ptr<SstReader> table, ReadOptions ropts)
      : table_(std::move(table)), ropts_(ropts) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    block_pos_ = 0;
    LoadBlockAndSeek(nullptr);
  }

  void Seek(const Slice& target) override {
    block_pos_ = table_->FindBlock(target);
    LoadBlockAndSeek(&target);
  }

  void Next() override {
    assert(valid_);
    if (AdvanceWithinBlock()) return;
    block_pos_++;
    LoadBlockAndSeek(nullptr);
  }

  Slice key() const override { return key_; }
  Slice value() const override { return value_; }
  Status status() const override { return status_; }

 private:
  // Loads block_pos_ (and following blocks if empty) and positions at the
  // first entry >= *target (or the first entry when target == nullptr).
  void LoadBlockAndSeek(const Slice* target) {
    InternalKeyComparator cmp;
    valid_ = false;
    while (block_pos_ < table_->index_.size()) {
      std::shared_ptr<BlockCache::Block> block;
      status_ = FetchBlock(block_pos_, &block);
      if (!status_.ok()) return;
      block_ = std::move(block);
      cursor_ = BlockEntryCursor(Slice(block_->physical));
      while (cursor_.Next()) {
        if (target == nullptr || cmp.Compare(cursor_.key(), *target) >= 0) {
          Capture();
          return;
        }
      }
      if (cursor_.corrupt()) {
        status_ = Status::Corruption("bad block entry");
        return;
      }
      block_pos_++;
    }
  }

  bool AdvanceWithinBlock() {
    if (cursor_.Next()) {
      Capture();
      return true;
    }
    if (cursor_.corrupt()) {
      status_ = Status::Corruption("bad block entry");
      valid_ = false;
      return true;  // stop: status is set
    }
    return false;
  }

  // key_ and value_ point into block_, which stays pinned until the
  // iterator moves to another block.
  void Capture() {
    key_ = cursor_.key();
    value_ = cursor_.value();
    valid_ = true;
  }

  // Serves a block from the readahead window, refilling it (one device read
  // per window) when the position moves outside.
  Status FetchBlock(size_t pos, std::shared_ptr<BlockCache::Block>* block) {
    if (ropts_.readahead_blocks <= 1) {
      return table_->ReadBlock(pos, ropts_, block);
    }
    if (pos < prefetch_base_ || pos >= prefetch_base_ + prefetch_.size()) {
      prefetch_base_ = pos;
      Status s =
          table_->ReadBlocksRange(pos, ropts_.readahead_blocks, &prefetch_);
      if (!s.ok()) return s;
    }
    *block = prefetch_[pos - prefetch_base_];
    return Status::OK();
  }

  std::shared_ptr<SstReader> table_;
  ReadOptions ropts_;
  size_t prefetch_base_ = 0;
  std::vector<std::shared_ptr<BlockCache::Block>> prefetch_;
  size_t block_pos_ = 0;
  std::shared_ptr<BlockCache::Block> block_;
  BlockEntryCursor cursor_{Slice()};
  Slice key_, value_;
  bool valid_ = false;
  Status status_;
};

std::unique_ptr<Iterator> SstReader::NewIterator(const ReadOptions& ropts) {
  return std::make_unique<SstIterator>(shared_from_this(), ropts);
}

Status ScanTable(SstReader* table, FileMetaData* observed) {
  ReadOptions ropts;
  ropts.fill_cache = false;
  InternalKeyComparator icmp;
  auto iter = table->NewIterator(ropts);
  uint64_t entries = 0;
  SequenceNumber max_seq = 0;
  std::string prev, smallest;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    Slice key = iter->key();
    if (entries > 0 && icmp.Compare(Slice(prev), key) >= 0) {
      return Status::Corruption("internal keys out of order");
    }
    if (entries == 0) smallest.assign(key.data(), key.size());
    prev.assign(key.data(), key.size());
    max_seq = std::max(max_seq, ExtractSequence(key));
    entries++;
  }
  if (!iter->status().ok()) return iter->status();
  observed->num_entries = entries;
  observed->max_seq = max_seq;
  observed->smallest = std::move(smallest);
  observed->largest = std::move(prev);
  return Status::OK();
}

}  // namespace kvaccel::lsm
