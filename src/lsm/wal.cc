#include "lsm/wal.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/write_batch.h"

namespace kvaccel::lsm {

// Record framing: [masked crc32c: fixed32][payload len: fixed32][payload]
static constexpr size_t kRecordHeader = 8;

Status LogWriter::AddRecord(const Slice& payload, uint64_t logical_bytes) {
  std::string rec;
  rec.reserve(kRecordHeader + payload.size());
  uint32_t crc = crc32c::Value(payload.data(), payload.size());
  PutFixed32(&rec, crc32c::Mask(crc));
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  rec.append(payload.data(), payload.size());
  return file_->Append(rec, logical_bytes + kRecordHeader);
}

LogReader::LogReader(std::unique_ptr<fs::RandomAccessFile> file) {
  status_ = file->Read(0, file->physical_size(), &contents_);
}

bool LogReader::ReadRecord(std::string* payload, Status* status) {
  *status = status_;
  if (!status_.ok()) return false;
  if (pos_ + kRecordHeader > contents_.size()) return false;  // clean/torn EOF
  uint32_t masked_crc = DecodeFixed32(contents_.data() + pos_);
  uint32_t len = DecodeFixed32(contents_.data() + pos_ + 4);
  if (pos_ + kRecordHeader + len > contents_.size() ||
      crc32c::Unmask(masked_crc) !=
          crc32c::Value(contents_.data() + pos_ + kRecordHeader, len)) {
    // A bad record at the very end of the log is a torn tail — the expected
    // shape after a crash mid-append — and ends recovery cleanly. A bad
    // record *followed by* a valid one cannot have been torn by a crash:
    // that is mid-log corruption and must not be silently truncated.
    if (HasValidRecordAfter(pos_ + 1)) {
      status_ = Status::Corruption("WAL record corrupt before valid data");
      *status = status_;
    }
    return false;
  }
  payload->assign(contents_.data() + pos_ + kRecordHeader, len);
  pos_ += kRecordHeader + len;
  return true;
}

bool LogReader::HasValidRecordAfter(size_t from) const {
  if (contents_.size() < kRecordHeader) return false;
  for (size_t p = from; p + kRecordHeader <= contents_.size(); p++) {
    uint32_t masked_crc = DecodeFixed32(contents_.data() + p);
    uint32_t len = DecodeFixed32(contents_.data() + p + 4);
    if (len == 0 || p + kRecordHeader + len > contents_.size()) continue;
    if (crc32c::Unmask(masked_crc) ==
        crc32c::Value(contents_.data() + p + kRecordHeader, len)) {
      return true;
    }
  }
  return false;
}

Status ReadWalBatches(fs::SimFs* fs, const std::string& name,
                      const std::function<Status(const WriteBatch&)>& fn) {
  std::unique_ptr<fs::RandomAccessFile> file;
  Status s = fs->NewRandomAccessFile(name, &file);
  if (!s.ok()) return s;
  LogReader reader(std::move(file));
  std::string payload;
  while (reader.ReadRecord(&payload, &s)) {
    WriteBatch batch;
    s = WriteBatch::ParseFrom(payload, &batch);
    if (!s.ok()) {
      return Status::Corruption("WAL record does not parse as a batch: " +
                                s.ToString());
    }
    s = fn(batch);
    if (!s.ok()) return s;
  }
  return s;
}

}  // namespace kvaccel::lsm
