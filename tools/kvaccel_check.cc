// kvaccel_check: offline consistency checker / repair for a dumped DB image.
//
//   build/tools/kvaccel_dbbench --system=kvaccel ... --db_dump_dir=/tmp/img
//   build/tools/kvaccel_check --db_dir=/tmp/img
//   build/tools/kvaccel_check --db_dir=/tmp/img --repair --out_dir=/tmp/fixed
//
// Loads the host-directory image (written by SimFs::DumpToHostDir) into a
// fresh simulated file system, replays the MANIFEST without mutating it and
// runs the full invariant catalogue from DESIGN.md §9: manifest/SST
// cross-checks, per-block CRCs, key ordering, L1+ non-overlap, sequence
// monotonicity, and WAL tail sanity.
//
// --db_dir=DIR names the image; --repair quarantines corrupt files
// (*.bad), salvages the WAL prefix, rebuilds the MANIFEST from the surviving
// SSTs and re-checks, writing the result to --out_dir (default: in place).
//
// Exit status: 0 = consistent (or repaired to consistency), 1 = errors
// found (and, with --repair, not fully repaired), 2 = usage or I/O trouble.
#include <cstdio>
#include <string>

#include "check/db_checker.h"
#include "common/flags.h"
#include "fs/simfs.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

using namespace kvaccel;

int main(int argc, char** argv) {
  std::string db_dir;
  std::string out_dir;
  bool repair = false;
  FlagTable flags;
  flags.String("db_dir", &db_dir, "DIR", "image to check (required)");
  flags.Set("repair", &repair, true,
            "quarantine corrupt files, salvage the WAL prefix and rebuild "
            "the MANIFEST, then re-check");
  flags.String("out_dir", &out_dir, "DIR",
               "where --repair writes the image (default: --db_dir)");
  flags.Parse(argc, argv);
  if (db_dir.empty()) {
    fprintf(stderr, "--db_dir is required (see --help)\n");
    return 2;
  }
  if (out_dir.empty()) out_dir = db_dir;

  // A minimal world: loaded images carry no extents, so reads come from the
  // page cache and device geometry barely matters — it just has to exist.
  sim::SimEnv env;
  ssd::SsdConfig ssd_config;
  ssd_config.capacity_bytes = 8ull << 30;
  ssd::HybridSsd ssd(&env, ssd_config);
  fs::SimFs fs(&ssd, 0);
  sim::CpuPool host_cpu(&env, "host", 8);

  Status load = fs.LoadFromHostDir(db_dir);
  if (!load.ok()) {
    fprintf(stderr, "load %s: %s\n", db_dir.c_str(),
            load.ToString().c_str());
    return 2;
  }

  lsm::DbOptions opts;  // format knobs only; the checker forces CRC checks
  lsm::DbEnv denv{&env, &ssd, &fs, &host_cpu};

  int rc = 2;  // overwritten unless the simulated thread never ran
  env.Spawn("kvaccel-check", [&] {
    check::DbChecker checker(opts, denv);
    check::CheckReport report = checker.Check();
    printf("%s", report.ToString().c_str());
    if (report.ok()) {
      rc = 0;
      return;
    }
    if (!repair) {
      rc = 1;
      return;
    }

    check::CheckReport repair_report;
    Status rs = checker.Repair(&repair_report);
    printf("%s", repair_report.ToString().c_str());
    if (!rs.ok()) {
      fprintf(stderr, "repair: %s\n", rs.ToString().c_str());
      rc = 1;
      return;
    }
    check::CheckReport after = checker.Check();
    printf("after repair: %s", after.ToString().c_str());
    rc = after.ok() ? 0 : 1;
  });
  env.Run();

  if (repair && rc == 0) {
    Status dump = fs.DumpToHostDir(out_dir);
    if (!dump.ok()) {
      fprintf(stderr, "write repaired image to %s: %s\n", out_dir.c_str(),
              dump.ToString().c_str());
      return 2;
    }
    printf("repaired image written to %s\n", out_dir.c_str());
  }
  return rc;
}
