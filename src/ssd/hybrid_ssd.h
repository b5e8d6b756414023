// HybridSsd: the dual-interface SSD of paper §V-D.
//
// The logical NAND flash address space is split at the *disaggregation point*
// into a block region (per-namespace page-mapped FTL, consumed by the file
// system / Main-LSM) and a key-value region (consumed by the in-device
// Dev-LSM). Both regions share the same NAND channels, the same PCIe link and
// the same firmware core — so redirected KV writes genuinely compete with
// compaction I/O for the one device, which is the resource dynamic the whole
// paper is about.
//
// Data plane note (DESIGN.md §1): the device carries *timing, capacity and
// traffic accounting*; payload bytes live host-side (SimFs) or in the DevLsm
// structures. This is the standard simulator split and does not change any
// bandwidth or latency result.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/trace.h"
#include "sim/cpu_pool.h"
#include "sim/resource.h"
#include "sim/sim_env.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "ssd/nand_flash.h"

namespace kvaccel::ssd {

class HybridSsd {
 public:
  HybridSsd(sim::SimEnv* env, const SsdConfig& config);

  const SsdConfig& config() const { return config_; }
  sim::SimEnv* env() const { return env_; }

  // ---------- Block interface (NVM command set) ----------
  // Sector == page (see SsdConfig). `lba` is namespace-relative.
  Status BlockWrite(int nsid, uint64_t lba, uint64_t sectors);
  Status BlockRead(int nsid, uint64_t lba, uint64_t sectors);
  // Device-internal block I/O for the NDP offload engine (DESIGN.md §13):
  // identical FTL/NAND path and fault sites, but no PCIe transfer — the data
  // moves NAND -> firmware SRAM -> NAND without ever crossing the link.
  Status BlockWriteInternal(int nsid, uint64_t lba, uint64_t sectors);
  Status BlockReadInternal(int nsid, uint64_t lba, uint64_t sectors);
  Status BlockTrim(int nsid, uint64_t lba, uint64_t sectors);
  Status BlockFlush(int nsid);
  // Number of sectors the block region of `nsid` exposes.
  uint64_t BlockCapacitySectors(int nsid) const;

  // ---------- Key-value interface plumbing ----------
  // DevLsm (src/devlsm) implements the KV command semantics; it uses these
  // primitives so every byte and cycle lands on the shared device resources.
  Nanos PcieToDevice(uint64_t bytes);  // host -> device DMA
  Nanos PcieToHost(uint64_t bytes);    // device -> host DMA
  Nanos NandRead(uint64_t bytes);
  Nanos NandWrite(uint64_t bytes);
  Nanos NandEraseBlocks(uint64_t blocks);
  sim::CpuPool* firmware() { return firmware_.get(); }

  // KV-region capacity bookkeeping (namespace-scoped quota).
  Status KvAllocPages(int nsid, uint64_t pages);
  void KvFreePages(int nsid, uint64_t pages);
  uint64_t KvUsedPages(int nsid) const;
  uint64_t KvCapacityPages(int nsid) const;

  // ---------- Shared observability ----------
  sim::RateResource& pcie() { return *pcie_; }
  const sim::RateResource& pcie() const { return *pcie_; }
  NandFlash& nand() { return *nand_; }
  const NandFlash& nand() const { return *nand_; }
  const Ftl& block_ftl(int nsid) const { return *namespaces_[nsid].block_ftl; }

 private:
  struct Namespace {
    std::unique_ptr<Ftl> block_ftl;
    uint64_t block_pages = 0;
    uint64_t kv_quota_pages = 0;
    uint64_t kv_used_pages = 0;
  };

  bool ValidNsid(int nsid) const {
    return nsid >= 0 && nsid < static_cast<int>(namespaces_.size());
  }

  Status BlockWriteImpl(int nsid, uint64_t lba, uint64_t sectors,
                        bool over_pcie);
  Status BlockReadImpl(int nsid, uint64_t lba, uint64_t sectors,
                       bool over_pcie);

  sim::SimEnv* env_;
  SsdConfig config_;
  std::unique_ptr<sim::RateResource> pcie_;
  std::unique_ptr<NandFlash> nand_;
  std::unique_ptr<sim::CpuPool> firmware_;
  std::vector<Namespace> namespaces_;
  obs::CoalescingSpan pcie_span_;
};

}  // namespace kvaccel::ssd
