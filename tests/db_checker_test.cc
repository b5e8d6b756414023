// Offline consistency checker + repair (DESIGN.md §9): each corruption class
// the issue names — truncated SST, bit-flipped block, MANIFEST referencing a
// missing file, orphaned Dev-LSM entry — must be detected, and Repair() must
// restore a checker-passing state with every uncorrupted key still readable.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/db_checker.h"
#include "core/kvaccel_db.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using check::CheckReport;
using check::DbChecker;
using test::SimWorld;
using test::TestKey;

// Writes `files` batches of `per_file` keys, each batch flushed into its own
// L0 SST. Keys are TestKey(0 .. files*per_file-1), value seed == key index.
void BuildDb(SimWorld& world, const lsm::DbOptions& opts, int files,
             int per_file) {
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
  for (int f = 0; f < files; f++) {
    for (int i = 0; i < per_file; i++) {
      int k = f * per_file + i;
      ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
  }
  ASSERT_TRUE(db->WaitForCompactionIdle().ok());
  ASSERT_TRUE(db->Close().ok());
}

// Every file of `type` on disk, in name order.
std::vector<std::string> FilesOfType(fs::SimFs& fs, lsm::FileType type) {
  std::vector<std::string> out;
  for (const std::string& name : fs.GetChildren()) {
    uint64_t number;
    lsm::FileType t;
    if (lsm::ParseFileName(name, &number, &t) && t == type) {
      out.push_back(name);
    }
  }
  return out;
}

std::vector<std::string> LiveSsts(fs::SimFs& fs) {
  return FilesOfType(fs, lsm::FileType::kTable);
}

std::string ReadRaw(fs::SimFs& fs, const std::string& name) {
  std::unique_ptr<fs::RandomAccessFile> f;
  EXPECT_TRUE(fs.NewRandomAccessFile(name, &f).ok());
  std::string raw;
  EXPECT_TRUE(f->Read(0, f->physical_size(), &raw).ok());
  return raw;
}

void WriteRaw(fs::SimFs& fs, const std::string& name,
              const std::string& bytes) {
  std::unique_ptr<fs::WritableFile> f;
  ASSERT_TRUE(fs.NewWritableFile(name, &f).ok());
  ASSERT_TRUE(f->Append(Slice(bytes)).ok());
  ASSERT_TRUE(f->Close().ok());
}

// After a repair, every key must be either gone (it lived in a quarantined
// file) or intact at its original value — never wrong, never a read error.
void VerifySurvivors(SimWorld& world, const lsm::DbOptions& opts,
                     int total_keys, int min_survivors) {
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
  int found = 0;
  for (int k = 0; k < total_keys; k++) {
    Value v;
    Status s = db->Get({}, TestKey(k), &v);
    if (s.IsNotFound()) continue;
    ASSERT_TRUE(s.ok()) << TestKey(k) << ": " << s.ToString();
    EXPECT_EQ(v.seed(), static_cast<uint64_t>(k)) << TestKey(k);
    found++;
  }
  EXPECT_GE(found, min_survivors);
  ASSERT_TRUE(db->Close().ok());
}

TEST(DbCheckerTest, CleanDbPassesWithFilesActuallyExamined) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 3, 50);
    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GT(report.sst_files_checked, 0) << report.ToString();
    EXPECT_GT(report.manifest_edits, 0);
  });
}

TEST(DbCheckerTest, TruncatedSstDetectedAndRepaired) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 4, 50);
    std::vector<std::string> ssts = LiveSsts(*world.fs);
    ASSERT_GE(ssts.size(), 2u);
    std::string victim = ssts[0];
    std::string raw = ReadRaw(*world.fs, victim);
    WriteRaw(*world.fs, victim, raw.substr(0, raw.size() / 2));

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "truncation not detected";

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    EXPECT_TRUE(world.fs->FileExists(victim + ".bad")) << "not quarantined";
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();
    // One file of four quarantined: at least the other ~3/4 survive intact.
    VerifySurvivors(world, opts, 200, 100);
  });
}

TEST(DbCheckerTest, BitFlippedBlockDetectedAndRepaired) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 4, 50);
    std::vector<std::string> ssts = LiveSsts(*world.fs);
    ASSERT_GE(ssts.size(), 2u);
    std::string victim = ssts.back();
    std::string raw = ReadRaw(*world.fs, victim);
    raw[raw.size() / 3] ^= 0x10;  // one bit, inside a data block
    WriteRaw(*world.fs, victim, raw);

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "bit flip not detected";

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();
    VerifySurvivors(world, opts, 200, 100);
  });
}

TEST(DbCheckerTest, ManifestReferencingMissingSstDetectedAndRepaired) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 4, 50);
    std::vector<std::string> ssts = LiveSsts(*world.fs);
    ASSERT_GE(ssts.size(), 2u);
    ASSERT_TRUE(world.fs->DeleteFile(ssts[0]).ok());

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "dangling MANIFEST reference not detected";
    bool mentions_missing = false;
    for (const auto& issue : report.issues) {
      if (issue.what.find("missing") != std::string::npos) {
        mentions_missing = true;
      }
    }
    EXPECT_TRUE(mentions_missing) << report.ToString();

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();
    VerifySurvivors(world, opts, 200, 100);
  });
}

TEST(DbCheckerTest, OrphanSstIsWarningNotError) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 2, 40);
    // A stranded file with an SST name but no MANIFEST reference: a power
    // cut legally leaves these behind, so it must not fail the check.
    WriteRaw(*world.fs, "999990.sst", "not really a table");
    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GT(report.warnings(), 0) << "orphan not surfaced at all";
  });
}

TEST(DbCheckerTest, WalMidLogCorruptionDetectedAndSalvaged) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    opts.write_buffer_size = 4 << 20;  // keep everything in the WAL
    opts.wal_sync = true;
    {
      std::unique_ptr<lsm::DB> db;
      ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
      for (int k = 0; k < 40; k++) {
        ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
      }
      ASSERT_TRUE(db->Close().ok());
    }
    std::vector<std::string> wals = FilesOfType(*world.fs, lsm::FileType::kLog);
    ASSERT_FALSE(wals.empty());
    std::string wal = wals.back();
    std::string raw = ReadRaw(*world.fs, wal);
    raw[raw.size() / 2] ^= 0x01;  // mid-log: valid records follow the damage
    WriteRaw(*world.fs, wal, raw);

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "mid-WAL corruption not detected";

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();

    // The salvaged WAL holds a clean prefix of the write order: recovered
    // keys must form a gap-free prefix at their original values.
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    bool missing_seen = false;
    int found = 0;
    for (int k = 0; k < 40; k++) {
      Value v;
      Status s = db->Get({}, TestKey(k), &v);
      if (s.IsNotFound()) {
        missing_seen = true;
        continue;
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_FALSE(missing_seen) << "hole in salvaged WAL prefix at " << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(k));
      found++;
    }
    EXPECT_GT(found, 0) << "salvage kept nothing";
    EXPECT_LT(found, 40) << "corrupt suffix was not actually dropped";
    ASSERT_TRUE(db->Close().ok());
  });
}

// File numbers only grow, past six digits: a stranded 999999.sst makes the
// next WAL 1000000.log. Recovery, the checker and repair must all see it.
TEST(DbCheckerTest, SevenDigitFileNumbersAreRecoveredCheckedAndKept) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 1, 20);
    WriteRaw(*world.fs, "999999.sst", "stranded by a power cut");
    lsm::WriteOptions sync;
    sync.sync = true;
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    ASSERT_TRUE(db->Put(sync, TestKey(777), Value::Synthetic(777, 4096)).ok());
    ASSERT_TRUE(db->Close().ok());
    ASSERT_TRUE(world.fs->FileExists("1000000.log"));
    world.fs->DropAllDirty();  // power cut: the acked write is synced

    auto serves_acked_key = [&] {
      std::unique_ptr<lsm::DB> reopened;
      ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &reopened).ok());
      Value v;
      Status s = reopened->Get({}, TestKey(777), &v);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(v.seed(), 777u);
      ASSERT_TRUE(reopened->Close().ok());
    };
    serves_acked_key();

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(report.ToString().find("unknown file"), std::string::npos)
        << report.ToString();
    int logs = 0;
    for (const std::string& name : world.fs->GetChildren()) {
      logs += name.ends_with(".log") ? 1 : 0;
    }
    EXPECT_EQ(report.wal_files_checked, logs) << report.ToString();

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    EXPECT_TRUE(world.fs->FileExists("1000000.log")) << report.ToString();
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();
    serves_acked_key();
  });
}

// A CRC-valid MANIFEST edit at a level past kNumLevels: recovery must refuse
// it as the checker does, not index past the level table.
TEST(DbCheckerTest, ManifestEditAtBadLevelFailsOpenAndCheck) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 1, 20);
    const std::string manifest = ReadRaw(*world.fs, "CURRENT");
    const std::string raw = ReadRaw(*world.fs, manifest);
    auto f = std::make_shared<lsm::FileMetaData>();
    f->number = 999;
    lsm::VersionEdit edit;
    edit.AddFile(9, f);
    std::string payload;
    edit.EncodeTo(&payload);
    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(world.fs->NewWritableFile(manifest, &file).ok());
    ASSERT_TRUE(file->Append(Slice(raw)).ok());
    lsm::LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord(payload, payload.size()).ok());
    ASSERT_TRUE(writer.Sync().ok());

    std::unique_ptr<lsm::DB> db;
    Status s = lsm::DB::Open(opts, world.MakeDbEnv(), &db);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    CheckReport report = DbChecker(opts, world.MakeDbEnv()).Check();
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.FirstError().find("bad level 9"), std::string::npos)
        << report.ToString();
  });
}

// ---------------------------------------------------------------------------
// Dual-interface invariant (live KvaccelDB)
// ---------------------------------------------------------------------------

TEST(DbCheckerTest, OrphanedDevLsmEntryDetectedAndDrainedByRepair) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    core::KvaccelOptions kv_opts;
    kv_opts.rollback = core::RollbackScheme::kDisabled;
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int k = 0; k < 20; k++) {
      ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
    }
    {
      CheckReport clean;
      DbChecker::CheckDualInterface(db.get(), &clean);
      ASSERT_TRUE(clean.ok()) << clean.ToString();
    }

    // Orphaned residue: the device holds the NEWEST version of key 3 but the
    // volatile metadata table has no record of it — no read path reaches it
    // and a trusted rollback would drop it.
    uint64_t newest = db->main()->AllocateSequence(1);
    ASSERT_TRUE(
        db->dev()->Put(TestKey(3), Value::Synthetic(777, 4096), newest).ok());
    // Dangling metadata: a record whose key the device cannot resolve.
    db->metadata()->Insert(TestKey(99), newest);

    CheckReport report;
    DbChecker::CheckDualInterface(db.get(), &report);
    EXPECT_GE(report.errors(), 2) << report.ToString();

    ASSERT_TRUE(DbChecker::RepairDualInterface(db.get()).ok());
    CheckReport after;
    DbChecker::CheckDualInterface(db.get(), &after);
    EXPECT_TRUE(after.ok()) << after.ToString();
    EXPECT_TRUE(db->dev()->Empty()) << "orphaned residue not drained";
    // The orphaned newest version is now authoritative host-side.
    Value v;
    ASSERT_TRUE(db->Get({}, TestKey(3), &v).ok());
    EXPECT_EQ(v.seed(), 777u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbCheckerTest, SupersededDeviceResidueIsWarningNotError) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    core::KvaccelOptions kv_opts;
    kv_opts.rollback = core::RollbackScheme::kDisabled;
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Device pair at host_seq 1, then a newer host write of the same key:
    // the residue is stale (3-1 path), not lost data.
    ASSERT_TRUE(
        db->dev()->Put(TestKey(5), Value::Synthetic(111, 4096), 1).ok());
    ASSERT_TRUE(db->Put({}, TestKey(5), Value::Synthetic(222, 4096)).ok());

    CheckReport report;
    DbChecker::CheckDualInterface(db.get(), &report);
    EXPECT_EQ(report.errors(), 0) << report.ToString();
    EXPECT_GT(report.warnings(), 0) << report.ToString();
    ASSERT_TRUE(db->Close().ok());
  });
}

}  // namespace
}  // namespace kvaccel

