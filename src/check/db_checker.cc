#include "check/db_checker.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/kvaccel_db.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/sst.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"

namespace kvaccel::check {

namespace {

std::string U64(uint64_t v) { return std::to_string(v); }

}  // namespace

// ---------------- CheckReport ----------------

void CheckReport::Error(std::string what) {
  issues.push_back({CheckIssue::Severity::kError, std::move(what)});
}

void CheckReport::Warn(std::string what) {
  issues.push_back({CheckIssue::Severity::kWarning, std::move(what)});
}

int CheckReport::errors() const {
  int n = 0;
  for (const auto& i : issues) {
    if (i.severity == CheckIssue::Severity::kError) n++;
  }
  return n;
}

std::string CheckReport::FirstError() const {
  for (const auto& i : issues) {
    if (i.severity == CheckIssue::Severity::kError) return i.what;
  }
  return "";
}

int CheckReport::warnings() const {
  return static_cast<int>(issues.size()) - errors();
}

std::string CheckReport::ToString() const {
  std::string out = "check: " + U64(errors()) + " error(s), " +
                    U64(warnings()) + " warning(s) [" + U64(manifest_edits) +
                    " manifest edit(s), " + U64(sst_files_checked) +
                    " sst(s), " + U64(wal_files_checked) + " wal(s)]\n";
  for (const auto& i : issues) {
    out += (i.severity == CheckIssue::Severity::kError ? "  [E] " : "  [W] ");
    out += i.what;
    out += '\n';
  }
  for (const auto& a : actions) {
    out += "  [R] " + a + '\n';
  }
  return out;
}

// ---------------- Manifest replay (read-only) ----------------

Status DbChecker::ReplayManifest(ManifestState* state, CheckReport* report) {
  if (!denv_.fs->FileExists("CURRENT")) {
    return Status::Corruption("CURRENT missing");
  }
  std::string manifest_name;
  Status s = fs::ReadFileToString(denv_.fs, "CURRENT", &manifest_name);
  if (!s.ok()) return s;
  if (!denv_.fs->FileExists(manifest_name)) {
    return Status::Corruption("CURRENT points at missing " + manifest_name);
  }
  state->manifest_name = manifest_name;
  // Files stay in manifest order per level (the SST reads below follow it).
  auto apply = [&](const lsm::VersionEdit& edit) {
    report->manifest_edits++;
    if (edit.has_log_number()) state->log_number = edit.log_number();
    if (edit.has_last_sequence()) state->last_sequence = edit.last_sequence();
    for (const auto& [level, number] : edit.deleted()) {
      auto& files = state->levels[level];
      auto it = std::find_if(files.begin(), files.end(), [&](const auto& f) {
        return f->number == number;
      });
      if (it == files.end()) {
        report->Warn(manifest_name + ": edit deletes unknown file " +
                     U64(number) + " at L" + U64(level));
      } else {
        files.erase(it);
      }
    }
    for (const auto& [level, f] : edit.added()) {
      state->levels[level].push_back(f);
    }
    return Status::OK();
  };
  // A torn tail (crash between append and sync) ends the replay cleanly;
  // a bad record with valid records after it is reported as corruption.
  return lsm::ReadManifest(denv_.fs, manifest_name, apply);
}

// ---------------- SST verification ----------------

Status DbChecker::VerifySst(uint64_t number, lsm::FileMetaData* meta) {
  const std::string name = lsm::TableFileName(number);
  std::shared_ptr<lsm::SstReader> reader;
  Status s = lsm::SstReader::Open(options_, denv_.fs, name, number,
                                  /*cache=*/nullptr, &reader);
  if (!s.ok()) return s;
  s = lsm::ScanTable(reader.get(), meta);
  if (!s.ok()) return s;
  (void)denv_.fs->GetFileSize(name, &meta->logical_size);
  return Status::OK();
}

// ---------------- WAL tail sanity ----------------

void DbChecker::CheckWal(const ManifestState& state, CheckReport* report) {
  for (const std::string& name : denv_.fs->GetChildren()) {
    uint64_t number;
    lsm::FileType type;
    if (!lsm::ParseFileName(name, &number, &type) ||
        type != lsm::FileType::kLog) {
      continue;
    }
    if (number < state.log_number) {
      report->Warn("stale WAL " + name + " (manifest log number " +
                   U64(state.log_number) + ")");
      continue;
    }
    uint64_t next_seq = 0;
    bool first = true;
    Status s = lsm::ReadWalBatches(
        denv_.fs, name, [&](const lsm::WriteBatch& batch) {
          if (!first && batch.Sequence() < next_seq) {
            report->Error(name + ": WAL sequences regress (" +
                          U64(batch.Sequence()) + " after " + U64(next_seq) +
                          ")");
          }
          next_seq = batch.Sequence() + batch.Count();
          first = false;
          return Status::OK();
        });
    if (!s.ok()) {
      // Mid-log corruption (valid records after the bad one) or a record
      // that is no batch: not a torn tail, so recovery would refuse it too.
      report->Error(name + ": " + s.ToString());
    }
    report->wal_files_checked++;
  }
}

// ---------------- Check ----------------

CheckReport DbChecker::Check() {
  CheckReport report;
  ManifestState st;
  Status s = ReplayManifest(&st, &report);
  if (!s.ok()) {
    report.Error("MANIFEST: " + s.ToString());
    return report;
  }

  lsm::InternalKeyComparator icmp;
  std::set<uint64_t> live;
  for (int level = 0; level < lsm::kNumLevels; level++) {
    for (const auto& f : st.levels[level]) {
      if (!live.insert(f->number).second) {
        report.Error("file " + U64(f->number) +
                     " appears twice in the manifest");
      }
      std::string name = lsm::TableFileName(f->number);
      if (!denv_.fs->FileExists(name)) {
        report.Error("MANIFEST references missing SST " + name + " at L" +
                     U64(level));
        continue;
      }
      lsm::FileMetaData observed;
      s = VerifySst(f->number, &observed);
      report.sst_files_checked++;
      if (!s.ok()) {
        report.Error(name + ": " + s.ToString());
        continue;
      }
      if (observed.num_entries != f->num_entries) {
        report.Error(name + ": entry count " + U64(observed.num_entries) +
                     " != recorded " + U64(f->num_entries));
      }
      if (observed.max_seq != f->max_seq) {
        report.Error(name + ": max seq " + U64(observed.max_seq) +
                     " != recorded " + U64(f->max_seq));
      }
      if (observed.smallest != f->smallest || observed.largest != f->largest) {
        report.Error(name + ": key range differs from recorded range");
      }
      if (f->max_seq > st.last_sequence) {
        report.Error(name + ": max seq " + U64(f->max_seq) +
                     " exceeds manifest last_sequence " +
                     U64(st.last_sequence) + " (sequence monotonicity)");
      }
    }
  }

  // Level non-overlap (L1+ only; L0 legally overlaps).
  for (int level = 1; level < lsm::kNumLevels; level++) {
    auto files = st.levels[level];
    std::sort(files.begin(), files.end(), [&](const auto& a, const auto& b) {
      return icmp.Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
    });
    for (size_t i = 1; i < files.size(); i++) {
      Slice prev_largest = lsm::ExtractUserKey(files[i - 1]->largest);
      Slice cur_smallest = lsm::ExtractUserKey(files[i]->smallest);
      int cmp = prev_largest.compare(cur_smallest);
      if (cmp > 0) {
        report.Error("L" + U64(level) + " files " + U64(files[i - 1]->number) +
                     " and " + U64(files[i]->number) +
                     " overlap in user-key space");
      } else if (cmp == 0) {
        // A user key's versions split across two files: point lookups probe
        // one file per level, so this deserves eyes even if no query has
        // tripped on it yet.
        report.Warn("L" + U64(level) + " files " + U64(files[i - 1]->number) +
                    " and " + U64(files[i]->number) +
                    " share a boundary user key");
      }
    }
  }

  // Inventory sweep: orphans and strangers are warnings (a power cut legally
  // strands a partially flushed SST; recovery simply never references it).
  for (const std::string& name : denv_.fs->GetChildren()) {
    if (name == "CURRENT" || name == "CURRENT.tmp" || name == "KVX_INDEX" ||
        name == "FENCE" || name == "FENCE.tmp" || name == st.manifest_name) {
      continue;
    }
    if (name.ends_with(".bad")) {
      report.Warn("quarantined file " + name);
      continue;
    }
    uint64_t number;
    lsm::FileType type;
    if (!lsm::ParseFileName(name, &number, &type)) {
      report.Warn("unknown file " + name);
    } else if (type == lsm::FileType::kManifest) {
      report.Warn("stale manifest " + name);
    } else if (type == lsm::FileType::kTable && live.count(number) == 0) {
      report.Warn("orphan SST " + name + " (not referenced by MANIFEST)");
    }  // WALs: CheckWal below
  }

  CheckWal(st, &report);
  return report;
}

// ---------------- Repair ----------------

Status DbChecker::Repair(CheckReport* report, uint64_t max_valid_seq) {
  std::vector<uint64_t> ssts, logs;
  std::vector<std::string> manifests;
  uint64_t max_number = 0;
  for (const std::string& name : denv_.fs->GetChildren()) {
    uint64_t number;
    lsm::FileType type;
    if (!lsm::ParseFileName(name, &number, &type)) continue;
    max_number = std::max(max_number, number);
    if (type == lsm::FileType::kTable) ssts.push_back(number);
    if (type == lsm::FileType::kLog) logs.push_back(number);
    if (type == lsm::FileType::kManifest) manifests.push_back(name);
  }
  std::sort(ssts.begin(), ssts.end());
  std::sort(logs.begin(), logs.end());

  // 1. Read everything before changing anything. Only Corruption marks a
  // file as damaged, besides the fencing frontier and an empty table: any
  // other read error, such as a transient device fault, is returned
  // unchanged with nothing renamed or rewritten. Every SST either passes
  // full verification or is quarantined.
  struct SstVerdict {
    lsm::FileMetaPtr meta;
    std::string why;  // empty = keep
  };
  std::vector<SstVerdict> verdicts;
  for (uint64_t number : ssts) {
    auto meta = std::make_shared<lsm::FileMetaData>();
    meta->number = number;
    Status s = VerifySst(number, meta.get());
    std::string why;
    if (!s.ok()) {
      if (!s.IsCorruption()) return s;
      why = s.ToString();
    } else if (meta->num_entries == 0) {
      why = "empty table";
    } else if (meta->max_seq > max_valid_seq) {
      // Diverged tail: entries above the fencing frontier were never acked
      // anywhere, so the whole file is quarantined (resync restores any
      // acked keys it straddled from the serving node).
      why = "diverged tail (max_seq " + U64(meta->max_seq) + " > frontier " +
            U64(max_valid_seq) + ")";
    }
    verdicts.push_back({std::move(meta), std::move(why)});
  }
  // Every WAL keeps its valid prefix (recovery replays them all: the new
  // manifest's log number is the smallest surviving log).
  struct WalCut {
    std::string name;
    std::vector<std::string> valid;
    bool frontier_cut = false;
  };
  std::vector<WalCut> cuts;
  for (uint64_t number : logs) {
    WalCut cut{lsm::LogFileName(number), {}, false};
    Status rs = lsm::ReadWalBatches(
        denv_.fs, cut.name, [&](const lsm::WriteBatch& batch) {
          if (batch.Count() > 0 &&
              batch.Sequence() + batch.Count() - 1 > max_valid_seq) {
            // First batch past the fencing frontier: this and everything
            // after it is the diverged tail a partitioned primary
            // WAL-appended but never got acked — drop it so recovery cannot
            // resurrect it.
            cut.frontier_cut = true;
            return Status::Aborted("past the fencing frontier");
          }
          cut.valid.push_back(batch.Contents());
          return Status::OK();
        });
    if (rs.ok()) continue;
    if (!cut.frontier_cut && !rs.IsCorruption()) return rs;
    cuts.push_back(std::move(cut));
  }

  // 2. Quarantine the damaged SSTs, then cut each WAL at the frontier or at
  // its first damaged record.
  std::vector<lsm::FileMetaPtr> good;
  lsm::SequenceNumber last_sequence = 0;
  for (SstVerdict& v : verdicts) {
    const std::string name = lsm::TableFileName(v.meta->number);
    if (v.why.empty()) {
      last_sequence = std::max(last_sequence, v.meta->max_seq);
      good.push_back(std::move(v.meta));
      report->actions.push_back("kept SST " + name);
      continue;
    }
    Status s = denv_.fs->RenameFile(name, name + ".bad");
    if (!s.ok()) return s;
    report->actions.push_back("quarantined " + name + ": " + v.why);
  }
  for (const WalCut& cut : cuts) {
    std::unique_ptr<fs::WritableFile> out;
    Status s = denv_.fs->NewWritableFile(cut.name, &out);  // O_TRUNC
    if (!s.ok()) return s;
    lsm::LogWriter writer(std::move(out));
    for (const std::string& rec : cut.valid) {
      if (s.ok()) s = writer.AddRecord(rec, rec.size());
    }
    if (s.ok()) s = writer.Sync();
    if (s.ok()) s = writer.Close();
    if (!s.ok()) return s;
    report->actions.push_back(
        "salvaged " + U64(cut.valid.size()) + " record(s) of " + cut.name +
        (cut.frontier_cut
             ? " (diverged tail cut at frontier " + U64(max_valid_seq) + ")"
             : ""));
  }

  // 3. Fresh MANIFEST: one snapshot edit, every good SST at L0 under its
  // original number. The L0 probe path picks the highest-sequence decider
  // among overlapping files (the max_seq shadow check), so losing the level
  // structure never loses sequence correctness.
  const uint64_t manifest_number = max_number + 1;
  const std::string manifest_name = lsm::ManifestFileName(manifest_number);
  lsm::VersionEdit snapshot;
  snapshot.SetLogNumber(logs.empty() ? 0 : logs.front());
  snapshot.SetNextFileNumber(manifest_number + 1);
  snapshot.SetLastSequence(last_sequence);
  for (const auto& f : good) snapshot.AddFile(0, f);
  std::unique_ptr<lsm::LogWriter> mwriter;
  Status s = lsm::WriteManifest(denv_.fs, manifest_name, snapshot, &mwriter);
  if (s.ok()) s = mwriter->Close();
  if (!s.ok()) return s;
  report->actions.push_back("rebuilt " + manifest_name + " with " +
                            U64(good.size()) + " SST(s) at L0");

  // 4. Quarantine the manifests the rebuild replaces.
  for (const std::string& name : manifests) {
    s = denv_.fs->RenameFile(name, name + ".bad");
    if (!s.ok()) return s;
    report->actions.push_back("quarantined " + name);
  }

  // 5. Repoint CURRENT atomically (the LevelDB idiom).
  return fs::ReplaceFileAtomically(denv_.fs, "CURRENT", manifest_name);
}

// ---------------- Live dual-interface invariant ----------------

void DbChecker::CheckDualInterface(core::KvaccelDB* db, CheckReport* report) {
  // Newest-version-only device view with host sequence numbers.
  std::map<std::string, uint64_t> dev_view;
  if (!db->dev()->Empty()) {
    (void)db->dev()->BulkScan([&](const VersionedEntry& e) {
      dev_view[e.key] = e.seq;
    });
  }
  std::set<std::string> md_keys;
  for (const auto& [key, md_seq] : db->metadata()->Entries()) {
    md_keys.insert(key);
    auto it = dev_view.find(key);
    if (it == dev_view.end()) {
      report->Error("metadata entry not resolvable in Dev-LSM: " + key);
      continue;
    }
    if (it->second != md_seq) {
      report->Error("metadata seq " + U64(md_seq) + " != device host seq " +
                    U64(it->second) + " for " + key);
    }
    Value unused;
    lsm::SequenceNumber main_seq = 0;
    Status s = db->main()->GetWithSequence({}, key, &unused, &main_seq);
    if (!s.ok() && !s.IsNotFound()) {
      report->Error("main read failed for " + key + ": " + s.ToString());
      continue;
    }
    if (md_seq != 0 && main_seq >= md_seq) {
      report->Error("key authoritative in both paths: " + key + " (main seq " +
                    U64(main_seq) + " >= md seq " + U64(md_seq) + ")");
    }
  }
  // Device entries without a metadata record: fine while superseded by a
  // newer host write (the 3-1 path deleted the record); fatal when the
  // device copy is the newest version — no read path reaches it, and a
  // trusted rollback would drop it.
  for (const auto& [key, host_seq] : dev_view) {
    if (md_keys.count(key) > 0) continue;
    if (host_seq == 0) {
      report->Warn("unversioned device entry without metadata: " + key);
      continue;
    }
    Value unused;
    lsm::SequenceNumber main_seq = 0;
    Status s = db->main()->GetWithSequence({}, key, &unused, &main_seq);
    if (!s.ok() && !s.IsNotFound()) {
      report->Error("main read failed for " + key + ": " + s.ToString());
      continue;
    }
    if (main_seq >= host_seq) {
      report->Warn("superseded device residue: " + key);
    } else {
      report->Error("orphaned device entry holds newest version of " + key +
                    " (host seq " + U64(host_seq) + " > main seq " +
                    U64(main_seq) + ") with no metadata record");
    }
  }
}

Status DbChecker::RepairDualInterface(core::KvaccelDB* db) {
  // Drop the (possibly inconsistent) volatile table and re-run the
  // sequence-ordered metadata-less recovery: every device pair either wins
  // by sequence (drained to the host) or is superseded (dropped), after
  // which the device is empty and the invariant holds vacuously.
  return db->CrashMetadataAndRecover(nullptr);
}

}  // namespace kvaccel::check
