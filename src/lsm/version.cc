#include "lsm/version.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/coding.h"
#include "lsm/filename.h"
#include "lsm/wal.h"
#include "sim/fault.h"

namespace kvaccel::lsm {

namespace {

enum EditTag : uint32_t {
  kLogNumber = 1,
  kNextFileNumber = 2,
  kLastSequence = 3,
  kDeletedFile = 4,
  kAddedFile = 5,
};

int CompareUserKeys(const Slice& a_internal, const Slice& b_internal) {
  return ExtractUserKey(a_internal).compare(ExtractUserKey(b_internal));
}

}  // namespace

// ---------------- VersionEdit ----------------

void VersionEdit::EncodeTo(std::string* dst) const {
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }
  for (const auto& [level, number] : deleted_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, number);
  }
  for (const auto& [level, f] : added_) {
    PutVarint32(dst, kAddedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, f->number);
    PutVarint64(dst, f->logical_size);
    PutVarint64(dst, f->num_entries);
    PutVarint64(dst, f->max_seq);
    PutLengthPrefixedSlice(dst, f->smallest);
    PutLengthPrefixedSlice(dst, f->largest);
  }
}

Status VersionEdit::DecodeFrom(const Slice& src, VersionEdit* edit) {
  Slice input = src;
  while (!input.empty()) {
    uint32_t tag;
    if (!GetVarint32(&input, &tag)) return Status::Corruption("edit tag");
    switch (tag) {
      case kLogNumber:
        if (!GetVarint64(&input, &edit->log_number_)) {
          return Status::Corruption("edit log number");
        }
        edit->has_log_number_ = true;
        break;
      case kNextFileNumber:
        if (!GetVarint64(&input, &edit->next_file_number_)) {
          return Status::Corruption("edit next file");
        }
        edit->has_next_file_number_ = true;
        break;
      case kLastSequence:
        if (!GetVarint64(&input, &edit->last_sequence_)) {
          return Status::Corruption("edit last seq");
        }
        edit->has_last_sequence_ = true;
        break;
      case kDeletedFile: {
        uint32_t level;
        uint64_t number;
        if (!GetVarint32(&input, &level) || !GetVarint64(&input, &number)) {
          return Status::Corruption("edit deleted file");
        }
        if (level >= kNumLevels) {
          return Status::Corruption("edit deletes at bad level " +
                                    std::to_string(level));
        }
        edit->deleted_.emplace_back(static_cast<int>(level), number);
        break;
      }
      case kAddedFile: {
        uint32_t level;
        auto f = std::make_shared<FileMetaData>();
        Slice smallest, largest;
        if (!GetVarint32(&input, &level) || !GetVarint64(&input, &f->number) ||
            !GetVarint64(&input, &f->logical_size) ||
            !GetVarint64(&input, &f->num_entries) ||
            !GetVarint64(&input, &f->max_seq) ||
            !GetLengthPrefixedSlice(&input, &smallest) ||
            !GetLengthPrefixedSlice(&input, &largest)) {
          return Status::Corruption("edit added file");
        }
        if (level >= kNumLevels) {
          return Status::Corruption("edit adds at bad level " +
                                    std::to_string(level));
        }
        f->smallest = smallest.ToString();
        f->largest = largest.ToString();
        edit->added_.emplace_back(static_cast<int>(level), std::move(f));
        break;
      }
      default:
        return Status::Corruption("unknown edit tag");
    }
  }
  return Status::OK();
}

// ---------------- Version ----------------

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : files_[level]) total += f->logical_size;
  return total;
}

uint64_t Version::TotalBytes() const {
  uint64_t total = 0;
  for (int l = 0; l < kNumLevels; l++) total += LevelBytes(l);
  return total;
}

void Version::ForEachOverlapping(
    const Slice& user_key,
    const std::function<bool(int, const FileMetaPtr&)>& fn) const {
  // L0: newest-first, any overlapping file.
  for (const auto& f : files_[0]) {
    if (user_key.compare(ExtractUserKey(f->smallest)) >= 0 &&
        user_key.compare(ExtractUserKey(f->largest)) <= 0) {
      if (!fn(0, f)) return;
    }
  }
  // L1+: files are disjoint and sorted by smallest — binary search.
  for (int level = 1; level < kNumLevels; level++) {
    const auto& files = files_[level];
    if (files.empty()) continue;
    auto it = std::lower_bound(
        files.begin(), files.end(), user_key,
        [](const FileMetaPtr& f, const Slice& k) {
          return ExtractUserKey(f->largest).compare(k) < 0;
        });
    if (it == files.end()) continue;
    if (user_key.compare(ExtractUserKey((*it)->smallest)) >= 0) {
      if (!fn(level, *it)) return;
    }
  }
}

std::vector<FileMetaPtr> Version::OverlappingInputs(
    int level, const Slice& smallest, const Slice& largest) const {
  std::vector<FileMetaPtr> result;
  for (const auto& f : files_[level]) {
    if (ExtractUserKey(f->largest).compare(ExtractUserKey(smallest)) < 0) {
      continue;
    }
    if (ExtractUserKey(f->smallest).compare(ExtractUserKey(largest)) > 0) {
      continue;
    }
    result.push_back(f);
  }
  return result;
}

// ---------------- MANIFEST files ----------------

Status ReadManifest(fs::SimFs* fs, const std::string& name,
                    const std::function<Status(const VersionEdit&)>& apply) {
  std::unique_ptr<fs::RandomAccessFile> file;
  Status s = fs->NewRandomAccessFile(name, &file);
  if (!s.ok()) return s;
  LogReader reader(std::move(file));
  std::string payload;
  while (reader.ReadRecord(&payload, &s)) {
    VersionEdit edit;
    s = VersionEdit::DecodeFrom(payload, &edit);
    if (!s.ok()) {
      return Status::Corruption(name + ": undecodable edit: " + s.ToString());
    }
    s = apply(edit);
    if (!s.ok()) return s;
  }
  return s;
}

Status WriteManifest(fs::SimFs* fs, const std::string& name,
                     const VersionEdit& snapshot,
                     std::unique_ptr<LogWriter>* writer) {
  std::unique_ptr<fs::WritableFile> file;
  Status s = fs->NewWritableFile(name, &file);
  if (!s.ok()) return s;
  *writer = std::make_unique<LogWriter>(std::move(file));
  std::string payload;
  snapshot.EncodeTo(&payload);
  s = (*writer)->AddRecord(payload, payload.size());
  return s.ok() ? (*writer)->Sync() : s;
}

// ---------------- VersionSet ----------------

VersionSet::VersionSet(const DbOptions& options, fs::SimFs* fs)
    : options_(options), fs_(fs), current_(std::make_shared<Version>()),
      compact_cursor_(kNumLevels, 0) {}

Status VersionSet::Create() {
  VersionEdit bootstrap;  // no log number: there is no WAL to replay yet
  return StartManifest(&bootstrap);
}

Status VersionSet::Recover() {
  std::string manifest_name;
  Status s = fs::ReadFileToString(fs_, "CURRENT", &manifest_name);
  if (!s.ok()) return s;
  auto version = std::make_shared<Version>();
  s = ReadManifest(fs_, manifest_name, [&](const VersionEdit& edit) {
    if (edit.has_log_number_) log_number_ = edit.log_number_;
    if (edit.has_next_file_number_) next_file_number_ = edit.next_file_number_;
    if (edit.has_last_sequence_) last_sequence_ = edit.last_sequence_;
    current_ = version;  // BuildAfter reads current_
    version = BuildAfter(edit);
    return Status::OK();
  });
  if (!s.ok()) return s;
  current_ = version;

  // Start a fresh manifest holding a snapshot of the recovered state
  // (LevelDB recovery idiom).
  VersionEdit snapshot;
  snapshot.SetLogNumber(log_number_);
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& f : current_->files(level)) snapshot.AddFile(level, f);
  }
  return StartManifest(&snapshot);
}

Status VersionSet::StartManifest(VersionEdit* snapshot) {
  manifest_name_ = ManifestFileName(next_file_number_++);
  snapshot->SetNextFileNumber(next_file_number_);
  snapshot->SetLastSequence(last_sequence_);
  Status s = WriteManifest(fs_, manifest_name_, *snapshot, &manifest_);
  if (!s.ok()) return s;
  return fs::ReplaceFileAtomically(fs_, "CURRENT", manifest_name_);
}

std::shared_ptr<Version> VersionSet::BuildAfter(
    const VersionEdit& edit) const {
  auto v = std::make_shared<Version>();
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& f : current_->files(level)) {
      bool deleted = false;
      for (const auto& [dl, dn] : edit.deleted_) {
        if (dl == level && dn == f->number) {
          deleted = true;
          break;
        }
      }
      if (!deleted) v->files_[level].push_back(f);
    }
  }
  for (const auto& [level, f] : edit.added_) {
    v->files_[level].push_back(f);
  }
  // L0 newest-first (file numbers are monotone); L1+ by smallest key.
  std::sort(v->files_[0].begin(), v->files_[0].end(),
            [](const FileMetaPtr& a, const FileMetaPtr& b) {
              return a->number > b->number;
            });
  InternalKeyComparator icmp;
  for (int level = 1; level < kNumLevels; level++) {
    std::sort(v->files_[level].begin(), v->files_[level].end(),
              [&](const FileMetaPtr& a, const FileMetaPtr& b) {
                return icmp.Compare(Slice(a->smallest), Slice(b->smallest)) <
                       0;
              });
  }
  return v;
}

Status VersionSet::CloseManifest() {
  if (manifest_ == nullptr) return Status::OK();
  Status s = manifest_->Close();
  manifest_.reset();
  return s;
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  edit->SetNextFileNumber(next_file_number_);
  edit->SetLastSequence(last_sequence_);
  std::string payload;
  edit->EncodeTo(&payload);
  Status s = manifest_->AddRecord(payload, payload.size());
  if (!s.ok()) return s;
  sim::SimEnv* env = fs_->ssd()->env();
  if (sim::FaultAt(env, "crash.manifest.pre_sync")) {
    // Edit appended but not durable: reopen must not observe it.
    return Status::IOError("simulated crash");
  }
  // Durable before the WAL it obsoletes can be deleted.
  s = manifest_->Sync();
  if (!s.ok()) return s;
  if (sim::FaultAt(env, "crash.manifest.post_sync")) {
    // Edit durable but never applied in memory: reopen must observe it.
    return Status::IOError("simulated crash");
  }
  current_ = BuildAfter(*edit);
  return Status::OK();
}

uint64_t VersionSet::MaxBytesForLevel(int level) const {
  assert(level >= 1);
  double bytes = static_cast<double>(options_.max_bytes_for_level_base);
  for (int l = 1; l < level; l++) {
    bytes *= kMaxBytesForLevelMultiplier;
  }
  return static_cast<uint64_t>(bytes);
}

double VersionSet::MaxCompactionScore(int* level_out) const {
  double best = 0;
  int best_level = 0;
  // L0 scores by file count.
  double l0 = static_cast<double>(current_->NumLevelFiles(0)) /
              static_cast<double>(options_.l0_compaction_trigger);
  best = l0;
  best_level = 0;
  for (int level = 1; level < kNumLevels - 1; level++) {
    double score = static_cast<double>(current_->LevelBytes(level)) /
                   static_cast<double>(MaxBytesForLevel(level));
    if (score > best) {
      best = score;
      best_level = level;
    }
  }
  if (level_out != nullptr) *level_out = best_level;
  return best;
}

uint64_t VersionSet::EstimatedPendingCompactionBytes() const {
  uint64_t pending = 0;
  if (current_->NumLevelFiles(0) >=
      options_.l0_compaction_trigger) {
    // Everything in L0 must move to L1 (plus the overlap it drags along;
    // approximate with the L0 bytes themselves).
    pending += current_->LevelBytes(0);
  }
  for (int level = 1; level < kNumLevels - 1; level++) {
    uint64_t bytes = current_->LevelBytes(level);
    uint64_t limit = MaxBytesForLevel(level);
    if (bytes > limit) pending += bytes - limit;
  }
  return pending;
}

int VersionSet::CompactionQueueDepth() const {
  int depth = 0;
  if (current_->NumLevelFiles(0) >= options_.l0_compaction_trigger) depth++;
  for (int level = 1; level < kNumLevels - 1; level++) {
    if (current_->LevelBytes(level) >= MaxBytesForLevel(level)) depth++;
  }
  return depth;
}

std::unique_ptr<Compaction> VersionSet::PickL0Compaction() const {
  // L0->L1 is serialized (paper §II-A event 2): bail if anything in L0 or
  // L1 is already compacting.
  for (const auto& f : current_->files(0)) {
    if (f->being_compacted) return nullptr;
  }
  for (const auto& f : current_->files(1)) {
    if (f->being_compacted) return nullptr;
  }
  auto c = std::make_unique<Compaction>();
  c->level = 0;
  c->output_level = 1;
  c->inputs[0] = current_->files(0);
  if (c->inputs[0].empty()) return nullptr;
  // Key range of all inputs determines the L1 overlap.
  std::string smallest = c->inputs[0][0]->smallest;
  std::string largest = c->inputs[0][0]->largest;
  for (const auto& f : c->inputs[0]) {
    if (CompareUserKeys(f->smallest, smallest) < 0) smallest = f->smallest;
    if (CompareUserKeys(f->largest, largest) > 0) largest = f->largest;
  }
  c->inputs[1] = current_->OverlappingInputs(1, smallest, largest);
  c->MarkBeingCompacted(true);
  return c;
}

std::unique_ptr<Compaction> VersionSet::PickIntraL0Compaction() const {
  // Only worthwhile once the file count threatens the slowdown trigger; the
  // output is still one L0 file, so below that this is wasted write amp.
  if (current_->NumLevelFiles(0) < options_.l0_slowdown_writes_trigger) {
    return nullptr;
  }
  auto c = std::make_unique<Compaction>();
  c->level = 0;
  c->output_level = 0;
  c->is_intra_l0 = true;
  for (const auto& f : current_->files(0)) {
    if (!f->being_compacted) c->inputs[0].push_back(f);
  }
  if (c->inputs[0].size() < 2) return nullptr;
  c->MarkBeingCompacted(true);
  return c;
}

std::unique_ptr<Compaction> VersionSet::PickLevelCompaction(int level) {
  const auto& files = current_->files(level);
  if (files.empty()) return nullptr;
  auto c = std::make_unique<Compaction>();
  c->level = level;
  c->output_level = level + 1;
  size_t n = files.size();
  for (size_t attempt = 0; attempt < n; attempt++) {
    size_t idx = (compact_cursor_[level] + attempt) % n;
    const FileMetaPtr& f = files[idx];
    if (f->being_compacted) continue;
    auto overlaps =
        current_->OverlappingInputs(level + 1, f->smallest, f->largest);
    bool busy = false;
    for (const auto& o : overlaps) busy = busy || o->being_compacted;
    if (busy) continue;
    c->inputs[0] = {f};
    c->inputs[1] = std::move(overlaps);
    compact_cursor_[level] = (idx + 1) % n;
    c->MarkBeingCompacted(true);
    return c;
  }
  return nullptr;
}

std::unique_ptr<Compaction> VersionSet::PickCompaction(bool allow_deep) {
  // Priority 1: L0->L1 whenever L0 is at its trigger, even if a deeper level
  // scores higher — L0 depth is what gates writer stalls.
  if (current_->NumLevelFiles(0) >= options_.l0_compaction_trigger) {
    auto c = PickL0Compaction();
    if (c != nullptr) return c;
    // Priority 2: L0->L1 is blocked on busy inputs while pressure keeps
    // building. Merge the idle L0 files among themselves (RocksDB intra-L0)
    // to cut the file count the slowdown/stop triggers watch.
    c = PickIntraL0Compaction();
    if (c != nullptr) return c;
  }
  if (!allow_deep) return nullptr;
  // Priority 3: deeper levels in descending score order (round-robin within
  // a level via compact_cursor_), so the most oversubscribed level drains
  // first instead of whichever level a FIFO scan happened to hit.
  std::vector<std::pair<double, int>> ranked;
  for (int level = 1; level < kNumLevels - 1; level++) {
    double score = static_cast<double>(current_->LevelBytes(level)) /
                   static_cast<double>(MaxBytesForLevel(level));
    if (score >= 1.0) ranked.emplace_back(score, level);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<double, int>& a, const std::pair<double, int>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // tie: shallower level first
            });
  for (const auto& [score, level] : ranked) {
    auto c = PickLevelCompaction(level);
    if (c != nullptr) return c;
  }
  return nullptr;
}

}  // namespace kvaccel::lsm
