// DbStats: everything the evaluation figures read out of a run — per-second
// op counts (Figs 2, 11, 13), latency histograms (Figs 3, 12), stall and
// slowdown regions (Figs 2, 4), and background-work byte counters.
// All times are virtual nanoseconds.
#pragma once

#include <cstdint>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "sim/timeseries.h"

namespace kvaccel::lsm {

struct DbStats {
  // Completed foreground operations, bucketed per virtual second.
  sim::TimeSeries writes_completed{kNanosPerSec};
  sim::TimeSeries reads_completed{kNanosPerSec};

  // Latency distributions (ns).
  Histogram put_latency;
  Histogram get_latency;
  Histogram seek_latency;

  // Write-stall bookkeeping (paper §II-A / §III-A).
  sim::IntervalRecorder stall_regions;     // writers fully blocked
  sim::IntervalRecorder slowdown_regions;  // delayed-write throttling active
  uint64_t stall_events = 0;
  uint64_t slowdown_events = 0;  // paper: 258 (RocksDB) / 433 (ADOC) delays

  // Background work.
  uint64_t flush_count = 0;
  uint64_t flush_bytes = 0;  // logical
  uint64_t compaction_count = 0;
  uint64_t compaction_bytes_read = 0;
  uint64_t compaction_bytes_written = 0;

  // Subcompactions & priority scheduler (DESIGN.md §10).
  uint64_t split_compactions = 0;     // jobs that ran range-partitioned
  uint64_t subcompaction_count = 0;   // sub-ranges executed by split jobs
  uint64_t intra_l0_compactions = 0;  // L0->L0 pressure-relief merges
  // Virtual ns compaction actors spent waiting on the shared compaction-bytes
  // rate limiter (only deep jobs are subject to it).
  uint64_t compaction_throttle_ns = 0;
  // Stranded files (uninstalled SSTs, superseded WALs) removed at recovery.
  uint64_t orphan_files_removed = 0;

  // Device-offloaded compaction (NDP, DESIGN.md §13).
  uint64_t ndp_compactions = 0;      // jobs that completed on the device
  uint64_t ndp_bytes_written = 0;    // output bytes produced device-side
  uint64_t ndp_fallbacks = 0;        // offloaded jobs rerun on the host

  uint64_t writes_total = 0;
  uint64_t write_bytes_total = 0;  // logical
  uint64_t reads_total = 0;
  uint64_t seeks_total = 0;  // Seek and SeekToFirst of user iterators

  // Fault handling: transient-error retries performed (foreground WAL sync
  // plus background flush/compaction attempts) and background errors latched
  // (each one moves the DB to read-only until reopened).
  uint64_t io_retries = 0;
  uint64_t background_errors = 0;

  // Group commit: one "group" is one WAL append + memtable apply performed
  // by a leader on behalf of itself and any coalesced followers. With a
  // single writer every group has size 1 and write_groups == writes_total.
  uint64_t write_groups = 0;
  Histogram group_commit_size;  // entries per group

  // One positioning call of a user iterator, `latency` virtual ns long.
  void AddSeek(Nanos latency) {
    seeks_total++;
    seek_latency.Add(latency);
  }

  // The snapshot reports the lsm.* and ndp.* rows from the Main-LSM's stats
  // (ndp.* only with an NDP engine attached) and the db.* rows from the
  // foreground view. The series and regions above are not metrics.
  static constexpr obs::StatField<DbStats> kMetrics[] = {
      {"lsm.writes_total", &DbStats::writes_total},
      {"lsm.write_bytes_total", &DbStats::write_bytes_total},
      {"lsm.reads_total", &DbStats::reads_total},
      {"lsm.seeks_total", &DbStats::seeks_total},
      {"lsm.flush.count", &DbStats::flush_count},
      {"lsm.flush.bytes", &DbStats::flush_bytes},
      {"lsm.compaction.count", &DbStats::compaction_count},
      {"lsm.compaction.bytes_read", &DbStats::compaction_bytes_read},
      {"lsm.compaction.bytes_written", &DbStats::compaction_bytes_written},
      {"lsm.compaction.split_jobs", &DbStats::split_compactions},
      {"lsm.compaction.subcompactions", &DbStats::subcompaction_count},
      {"lsm.compaction.intra_l0", &DbStats::intra_l0_compactions},
      {"lsm.compaction.throttle_ns", &DbStats::compaction_throttle_ns},
      {"lsm.orphan_files_removed", &DbStats::orphan_files_removed},
      {"lsm.stall.events", &DbStats::stall_events},
      {"lsm.slowdown.events", &DbStats::slowdown_events},
      {"lsm.io_retries", &DbStats::io_retries},
      {"lsm.background_errors", &DbStats::background_errors},
      {"lsm.write_groups", &DbStats::write_groups},
      {"lsm.group_commit_size", &DbStats::group_commit_size},
      {"ndp.compactions", &DbStats::ndp_compactions},
      {"ndp.bytes_written", &DbStats::ndp_bytes_written},
      {"ndp.fallbacks", &DbStats::ndp_fallbacks},
      {"db.put_latency_ns", &DbStats::put_latency},
      {"db.get_latency_ns", &DbStats::get_latency},
      {"db.seek_latency_ns", &DbStats::seek_latency},
  };
};

}  // namespace kvaccel::lsm
