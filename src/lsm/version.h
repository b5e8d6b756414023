// Versions: immutable snapshots of the LSM file layout (which SSTs live at
// which level), the VersionEdit log persisted in the MANIFEST, and the
// compaction picker. L0 files may overlap (newest first); L1+ files are
// disjoint and sorted. The stall triggers and the KVACCEL Detector both read
// their signals (L0 count, pending compaction bytes) from here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "fs/simfs.h"
#include "lsm/dbformat.h"
#include "lsm/options.h"

namespace kvaccel::lsm {

// Growth of the level target from one level to the next (RocksDB
// max_bytes_for_level_multiplier).
constexpr double kMaxBytesForLevelMultiplier = 10.0;

class LogWriter;

struct FileMetaData {
  uint64_t number = 0;
  uint64_t logical_size = 0;
  uint64_t num_entries = 0;
  // Largest sequence number contained in the file. Flushed files respect the
  // invariant "newer L0 file => newer data"; bulk-ingested files (historical
  // sequences) may not, and lookups use max_seq to stay seq-correct.
  SequenceNumber max_seq = 0;
  std::string smallest;  // internal keys
  std::string largest;
  // Runtime-only: set while the file is an input of a running compaction.
  bool being_compacted = false;
};

using FileMetaPtr = std::shared_ptr<FileMetaData>;

// A delta between two versions; serialized into the MANIFEST.
class VersionEdit {
 public:
  void AddFile(int level, FileMetaPtr file) {
    added_.emplace_back(level, std::move(file));
  }
  void DeleteFile(int level, uint64_t number) {
    deleted_.emplace_back(level, number);
  }
  void SetLogNumber(uint64_t n) { log_number_ = n; has_log_number_ = true; }
  void SetNextFileNumber(uint64_t n) {
    next_file_number_ = n;
    has_next_file_number_ = true;
  }
  void SetLastSequence(SequenceNumber s) {
    last_sequence_ = s;
    has_last_sequence_ = true;
  }

  void EncodeTo(std::string* dst) const;
  // Corruption on a malformed record or a level outside [0, kNumLevels).
  static Status DecodeFrom(const Slice& src, VersionEdit* edit);

  const std::vector<std::pair<int, FileMetaPtr>>& added() const {
    return added_;
  }
  const std::vector<std::pair<int, uint64_t>>& deleted() const {
    return deleted_;
  }
  // Pointer accessors (offline MANIFEST replay, check/db_checker.cc).
  bool has_log_number() const { return has_log_number_; }
  uint64_t log_number() const { return log_number_; }
  bool has_last_sequence() const { return has_last_sequence_; }
  SequenceNumber last_sequence() const { return last_sequence_; }

 private:
  friend class VersionSet;
  std::vector<std::pair<int, FileMetaPtr>> added_;
  std::vector<std::pair<int, uint64_t>> deleted_;
  uint64_t log_number_ = 0;
  bool has_log_number_ = false;
  uint64_t next_file_number_ = 0;
  bool has_next_file_number_ = false;
  SequenceNumber last_sequence_ = 0;
  bool has_last_sequence_ = false;
};

// The MANIFEST format's one reader and one writer. ReadManifest decodes
// every edit of MANIFEST `name` in order into `apply`, stopping at the first
// undecodable edit, at mid-log corruption (a torn tail ends cleanly) or at an
// error from `apply`. WriteManifest creates MANIFEST `name` with `snapshot`
// as its first record, synced; *writer stays open for later edits.
Status ReadManifest(fs::SimFs* fs, const std::string& name,
                    const std::function<Status(const VersionEdit&)>& apply);
Status WriteManifest(fs::SimFs* fs, const std::string& name,
                     const VersionEdit& snapshot,
                     std::unique_ptr<LogWriter>* writer);

class Version {
 public:
  Version() : files_(kNumLevels) {}

  const std::vector<FileMetaPtr>& files(int level) const {
    return files_[level];
  }
  int NumLevelFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }
  uint64_t LevelBytes(int level) const;

  // Files possibly containing `user_key`, in the order Get must probe them:
  // every overlapping L0 file newest-first, then at most one file per level.
  void ForEachOverlapping(
      const Slice& user_key,
      const std::function<bool(int level, const FileMetaPtr&)>& fn) const;

  // All files in `level` whose range intersects [smallest, largest]
  // (user-key comparison).
  std::vector<FileMetaPtr> OverlappingInputs(int level, const Slice& smallest,
                                             const Slice& largest) const;

  uint64_t TotalBytes() const;

 private:
  friend class VersionSet;
  std::vector<std::vector<FileMetaPtr>> files_;
};

// A picked compaction: inputs_[0] from `level`, inputs_[1] from
// `output_level`. Normally output_level == level + 1; an intra-L0
// pressure-relief job (DESIGN.md §10) has level == output_level == 0 and an
// empty inputs_[1] — it merges idle L0 files among themselves to cut the file
// count the stop trigger watches while the real L0->L1 job is busy.
struct Compaction {
  int level = 0;
  int output_level = 1;
  bool is_intra_l0 = false;
  std::vector<FileMetaPtr> inputs[2];

  uint64_t InputBytes() const {
    uint64_t total = 0;
    for (const auto& side : inputs) {
      for (const auto& f : side) total += f->logical_size;
    }
    return total;
  }
  void MarkBeingCompacted(bool flag) const {
    for (const auto& side : inputs) {
      for (const auto& f : side) f->being_compacted = flag;
    }
  }
};

class VersionSet {
 public:
  VersionSet(const DbOptions& options, fs::SimFs* fs);

  // Creates a fresh DB (empty manifest) or recovers an existing one.
  Status Create();
  Status Recover();

  // Applies `edit`, persists it to the MANIFEST, installs the new version.
  Status LogAndApply(VersionEdit* edit);

  // Flushes and closes the MANIFEST; call from a simulated thread before the
  // VersionSet is destroyed (destructors must not perform device I/O).
  Status CloseManifest();

  std::shared_ptr<const Version> current() const { return current_; }

  uint64_t NewFileNumber() { return next_file_number_++; }
  // Recovery guard: the counter is durable only as of the last manifest
  // write, but WAL numbers are allocated without one. A reopened DB must
  // bump past every file it finds on disk, or a fresh WAL can reuse (and
  // truncate) a live log whose contents exist nowhere else yet.
  void MarkFileNumberUsed(uint64_t number) {
    if (number >= next_file_number_) next_file_number_ = number + 1;
  }
  SequenceNumber last_sequence() const { return last_sequence_; }
  void SetLastSequence(SequenceNumber s) { last_sequence_ = s; }
  uint64_t log_number() const { return log_number_; }

  // --- Stall/tuning signals ---
  // Score >= 1.0 means the level wants compaction; returns the max level
  // score and the level that carries it.
  double MaxCompactionScore(int* level) const;
  // RocksDB-style estimate of bytes compaction still must move.
  uint64_t EstimatedPendingCompactionBytes() const;
  // Number of levels currently scoring >= 1.0 (distinct runnable jobs).
  int CompactionQueueDepth() const;

  // Picks a compaction by priority (or nullptr if nothing to do / inputs
  // busy): (1) L0->L1 whenever L0 is at its trigger — L0 depth is what gates
  // writer stalls; (2) intra-L0 relief when L0->L1 is blocked on busy inputs
  // and pressure keeps building; (3) deeper levels in descending score order,
  // only when `allow_deep` (the worker loop withholds the last free slot from
  // deep jobs under L0 pressure). The returned compaction's files are marked
  // being_compacted.
  std::unique_ptr<Compaction> PickCompaction(bool allow_deep = true);

  // Target size of a level (level >= 1): max_bytes_for_level_base, grown by
  // kMaxBytesForLevelMultiplier per level below L1.
  uint64_t MaxBytesForLevel(int level) const;

 private:
  // Writes a new MANIFEST whose first record is `snapshot` (plus the file
  // and sequence counters) and points CURRENT at it.
  Status StartManifest(VersionEdit* snapshot);
  std::shared_ptr<Version> BuildAfter(const VersionEdit& edit) const;
  std::unique_ptr<Compaction> PickL0Compaction() const;
  std::unique_ptr<Compaction> PickIntraL0Compaction() const;
  std::unique_ptr<Compaction> PickLevelCompaction(int level);

  const DbOptions& options_;
  fs::SimFs* fs_;
  std::shared_ptr<const Version> current_;
  std::unique_ptr<LogWriter> manifest_;
  std::string manifest_name_;
  uint64_t next_file_number_ = 1;
  uint64_t log_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  std::vector<size_t> compact_cursor_;  // round-robin pick position per level
};

}  // namespace kvaccel::lsm
