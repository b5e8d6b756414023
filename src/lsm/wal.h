// Write-ahead log: CRC-framed records over a SimFs file. One log per
// memtable generation (RocksDB style); the log is deleted once its memtable
// is flushed. Physical framing is compact; logical bytes ride along for
// device accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "fs/simfs.h"

namespace kvaccel::lsm {

class WriteBatch;

class LogWriter {
 public:
  explicit LogWriter(std::unique_ptr<fs::WritableFile> file)
      : file_(std::move(file)) {}

  // Appends one record whose payload represents `logical_bytes` on-device.
  Status AddRecord(const Slice& payload, uint64_t logical_bytes);
  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

 private:
  std::unique_ptr<fs::WritableFile> file_;
};

class LogReader {
 public:
  explicit LogReader(std::unique_ptr<fs::RandomAccessFile> file);

  // Reads the next record payload; returns false at clean EOF. A torn *tail*
  // — a truncated or CRC-failing record with nothing valid after it — ends
  // iteration without error (the standard crash-recovery posture). A bad
  // record with a valid record after it cannot be a torn tail: that is data
  // corruption, reported via `status` as Status::Corruption.
  bool ReadRecord(std::string* payload, Status* status);

 private:
  // True if any well-formed (length-fitting, CRC-passing) record starts at
  // or after `from`.
  bool HasValidRecordAfter(size_t from) const;

  std::string contents_;
  size_t pos_ = 0;
  Status status_;
};

// The one reader of WAL batches: parses every record of WAL `name` as a
// WriteBatch and hands it to `fn`, in log order. A torn tail ends the log
// cleanly. Returns the first error: the file's open or read status,
// Corruption for a record that is no batch or for a bad record with valid
// ones after it, or whatever `fn` returned to stop early.
Status ReadWalBatches(fs::SimFs* fs, const std::string& name,
                      const std::function<Status(const WriteBatch&)>& fn);

}  // namespace kvaccel::lsm
