// NdpDevice: the device side of offloaded compaction (DESIGN.md §13).
//
// Models a vendor COMPACT command on the hybrid SSD: the host ships a small
// descriptor (input file set + sub-range plan) over PCIe, firmware cores run
// the k-way merge reading and writing NAND directly — no data ever crosses
// the link — and a result capsule (output SST metadata) returns to the host
// for the single atomic VersionEdit install. The LSM's merge loop itself
// stays host-code (single-sourced semantics); what moves to the device is
// the *cost*: merge/verify cycles land on the NDP cores and block I/O runs
// through HybridSsd::Block{Read,Write}Internal.
//
// Fault sites:
//   ndp.compact.transient  — device rejects the command; planner falls back
//   crash.ndp.result.pre   — merge finished, result capsule still in flight;
//                            the outputs are uninstalled strays recovery reaps
// (crash.ndp.merge.mid / crash.ndp.submerge.mid fire inside the merge loop,
// see lsm/db_impl.cc.)
#pragma once

#include <cstdint>
#include <map>

#include "common/status.h"
#include "common/units.h"
#include "sim/cpu_pool.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::ndp {

struct NdpStats {
  uint64_t commands = 0;        // COMPACT descriptors accepted
  uint64_t rejected = 0;        // transient device rejections
  uint64_t jobs_completed = 0;  // result capsules delivered to the host
  uint64_t jobs_failed = 0;     // jobs reported failed (host fell back)
  uint64_t merge_bytes = 0;     // logical bytes merged on NDP cores
  uint64_t command_bytes = 0;   // PCIe bytes, host -> device
  uint64_t result_bytes = 0;    // PCIe bytes, device -> host
};

// What one COMPACT command describes (mirrors lsm::OffloadJobInfo).
struct CompactDescriptor {
  int level = 0;
  int output_level = 0;
  uint64_t input_bytes = 0;
  int input_files = 0;
  int subranges = 1;
};

class NdpDevice {
 public:
  explicit NdpDevice(ssd::HybridSsd* ssd);

  // Ships one COMPACT descriptor to the device. Blocks for the PCIe
  // transfer; fails at ndp.compact.transient (device busy/reject — the
  // caller runs the job on the host instead). On success *cmd_id names the
  // in-flight command for FinishCompact.
  Status BeginCompact(const CompactDescriptor& d, uint64_t* cmd_id);

  // Burns merge + verify cycles for `bytes` logical bytes on the NDP cores;
  // blocks the calling actor until the work retires (k-server queueing).
  void MergeCpu(uint64_t bytes);

  // Completes a command. ok=true ships the result capsule device -> host
  // (crash.ndp.result.pre fires before the transfer: output metadata lost in
  // flight, SSTs already on NAND stay uninstalled). ok=false records a
  // device-side failure; nothing crosses the link.
  Status FinishCompact(uint64_t cmd_id, bool ok, uint64_t output_files,
                       uint64_t output_bytes);

  // The dedicated NDP cores the merge cycles land on, apart from the SSD's
  // firmware core.
  sim::CpuPool* cpu() { return &pool_; }
  ssd::HybridSsd* ssd() { return ssd_; }
  const NdpStats& stats() const { return stats_; }

 private:
  ssd::HybridSsd* ssd_;
  sim::SimEnv* env_;
  sim::CpuPool pool_;
  NdpStats stats_;
  uint64_t next_cmd_id_ = 1;
  std::map<uint64_t, Nanos> inflight_;  // cmd_id -> start time (for tracing)
  uint32_t tr_track_ = 0;
  bool traced_ = false;
};

}  // namespace kvaccel::ndp
