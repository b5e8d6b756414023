// DbChecker: offline consistency verification and repair for the Main-LSM
// on-disk state, plus live checks of KVACCEL's dual-interface invariant
// (DESIGN.md §9).
//
// Check() replays the MANIFEST without mutating anything (VersionSet::
// Recover rewrites a fresh manifest; the checker must not) and then
// cross-checks, per the invariant catalogue:
//   - CURRENT points at a readable MANIFEST; every edit decodes;
//   - every live SST exists, opens, passes per-block CRC, holds strictly
//     ascending internal keys inside its recorded [smallest, largest],
//     and matches its recorded entry count and max sequence;
//   - L1+ files are disjoint in user-key space (level non-overlap);
//   - no file's max sequence exceeds the replayed last_sequence
//     (sequence monotonicity — LogAndApply stamps last_sequence into
//     every edit, so the replayed value is current);
//   - WAL files at/after the manifest's log number decode record-by-record
//     as WriteBatches with ascending sequences; a torn tail is benign,
//     corruption before valid records is not.
// Orphan SSTs and stale logs are warnings: a power cut legally strands
// partially flushed files.
//
// Repair() rebuilds a checker-passing state from whatever survived:
// corrupt SSTs and stale manifests are quarantined (renamed *.bad), the
// valid prefix of each WAL is salvaged, and a fresh MANIFEST is written
// with every good SST at L0 under its original number — the L0 max_seq
// shadow check keeps reads sequence-correct, exactly as IngestSortedBatch
// relies on. Uncorrupted keys therefore stay readable.
//
// The volatile half of the invariant (Metadata Manager vs Dev-LSM) cannot
// be seen from files; CheckDualInterface/RepairDualInterface run against a
// live KvaccelDB.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "lsm/db.h"
#include "lsm/options.h"
#include "lsm/version.h"

namespace kvaccel::core {
class KvaccelDB;
}

namespace kvaccel::check {

struct CheckIssue {
  enum class Severity { kWarning, kError };
  Severity severity = Severity::kError;
  std::string what;
};

struct CheckReport {
  std::vector<CheckIssue> issues;
  // Repair() records what it did here.
  std::vector<std::string> actions;
  // Inventory actually examined (a report that checked nothing is not a
  // clean report).
  int manifest_edits = 0;
  int sst_files_checked = 0;
  int wal_files_checked = 0;

  void Error(std::string what);
  void Warn(std::string what);
  int errors() const;
  int warnings() const;
  // The first error's text, or "" when there is none.
  std::string FirstError() const;
  bool ok() const { return errors() == 0; }
  std::string ToString() const;
};

class DbChecker {
 public:
  DbChecker(const lsm::DbOptions& options, const lsm::DbEnv& env)
      : options_(options), denv_(env) {
    // The checker always verifies block CRCs, whatever the DB ran with.
    options_.verify_checksums = true;
  }

  // Offline verification of the files in the DbEnv's file system. Must run
  // on a simulated thread (reads charge device time); the DB must be closed.
  CheckReport Check();

  // Offline repair (see file comment). Also must run on a simulated thread
  // against a closed DB. Reports actions into `report`.
  //
  // `max_valid_seq` is the fencing frontier for partition reconciliation
  // (DESIGN.md §12): entries above it were never acknowledged anywhere (the
  // deposed primary's diverged tail), so any SST whose max_seq exceeds it is
  // quarantined and each WAL is additionally cut at the first batch that
  // crosses it. UINT64_MAX (the default) disables frontier enforcement.
  Status Repair(CheckReport* report, uint64_t max_valid_seq = UINT64_MAX);

  // Live dual-interface invariant: every Metadata Manager entry resolvable
  // in the Dev-LSM at the recorded sequence, no key authoritative in both
  // paths, no unsuperseded device residue without a metadata record.
  static void CheckDualInterface(core::KvaccelDB* db, CheckReport* report);
  // Drains orphaned Dev-LSM residue back to the host: drops the (possibly
  // inconsistent) metadata table and re-runs sequence-ordered recovery.
  static Status RepairDualInterface(core::KvaccelDB* db);

 private:
  // Result of replaying the MANIFEST chain offline.
  struct ManifestState {
    std::string manifest_name;
    uint64_t log_number = 0;
    lsm::SequenceNumber last_sequence = 0;
    std::vector<std::vector<lsm::FileMetaPtr>> levels;
    ManifestState() : levels(lsm::kNumLevels) {}
  };

  Status ReplayManifest(ManifestState* state, CheckReport* report);
  // Full-content verification of SST `number` (lsm::ScanTable); fills
  // `meta` (number unset) from what was actually read.
  Status VerifySst(uint64_t number, lsm::FileMetaData* meta);
  void CheckWal(const ManifestState& state, CheckReport* report);

  lsm::DbOptions options_;
  lsm::DbEnv denv_;
};

}  // namespace kvaccel::check
