#include "ssd/hybrid_ssd.h"

#include <cassert>

#include "sim/fault.h"

namespace kvaccel::ssd {

HybridSsd::HybridSsd(sim::SimEnv* env, const SsdConfig& config)
    : env_(env), config_(config) {
  pcie_ = std::make_unique<sim::RateResource>(env, "pcie",
                                              config.pcie_bytes_per_sec);
  if (obs::Tracer* tracer = env->tracer()) {
    pcie_span_.Init(tracer, tracer->RegisterTrack("ssd.pcie"), "pcie.busy",
                    FromMicros(50));
    pcie_->set_busy_callback([this](Nanos start, Nanos end, uint64_t bytes) {
      pcie_span_.Add(start, end, bytes);
    });
    tracer->AddFlusher([this] { pcie_span_.Flush(); });
  }
  nand_ = std::make_unique<NandFlash>(env, config);
  // Only busy_seconds() is ever read from the firmware core, so it keeps no
  // per-interval history (one interval per Dev-LSM command otherwise).
  firmware_ = std::make_unique<sim::CpuPool>(
      env, "ssd-firmware", config.firmware_cores, config.firmware_speed,
      /*keep_history=*/false);

  assert(config.num_namespaces >= 1);
  uint64_t block_pages_per_ns =
      config.block_region_pages() / config.num_namespaces;
  uint64_t kv_pages_per_ns = config.kv_region_pages() / config.num_namespaces;
  for (int i = 0; i < config.num_namespaces; i++) {
    Namespace ns;
    ns.block_pages = block_pages_per_ns;
    ns.kv_quota_pages = kv_pages_per_ns;
    Ftl::Options fopt;
    fopt.logical_pages = block_pages_per_ns;
    fopt.pages_per_block = config.pages_per_block;
    fopt.overprovision = config.overprovision;
    fopt.gc_free_threshold = config.gc_free_threshold;
    // GC traffic is charged against the shared NAND channels.
    ns.block_ftl = std::make_unique<Ftl>(
        fopt, [this](uint64_t pages, uint64_t blocks) {
          uint64_t bytes = pages * config_.page_size;
          nand_->Read(bytes);
          nand_->Write(bytes);
          nand_->Erase(blocks);
        });
    namespaces_.push_back(std::move(ns));
  }
}

uint64_t HybridSsd::BlockCapacitySectors(int nsid) const {
  assert(ValidNsid(nsid));
  return namespaces_[nsid].block_pages;
}

Status HybridSsd::BlockWriteImpl(int nsid, uint64_t lba, uint64_t sectors,
                                 bool over_pcie) {
  if (!ValidNsid(nsid)) return Status::InvalidArgument("bad nsid");
  if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
  if (sim::FaultAt(env_, "ssd.block.write.transient")) {
    return Status::IOError("injected: block write failed");
  }
  uint64_t bytes = sectors * config_.page_size;
  if (over_pcie) pcie_->Transfer(bytes);
  Status s = namespaces_[nsid].block_ftl->Write(lba, sectors);
  if (!s.ok()) return s;
  nand_->Write(bytes);
  return Status::OK();
}

Status HybridSsd::BlockWrite(int nsid, uint64_t lba, uint64_t sectors) {
  return BlockWriteImpl(nsid, lba, sectors, /*over_pcie=*/true);
}

Status HybridSsd::BlockWriteInternal(int nsid, uint64_t lba,
                                     uint64_t sectors) {
  return BlockWriteImpl(nsid, lba, sectors, /*over_pcie=*/false);
}

Status HybridSsd::BlockReadImpl(int nsid, uint64_t lba, uint64_t sectors,
                                bool over_pcie) {
  if (!ValidNsid(nsid)) return Status::InvalidArgument("bad nsid");
  if (lba + sectors > namespaces_[nsid].block_pages) {
    return Status::InvalidArgument("read beyond block region");
  }
  if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
  if (sim::FaultAt(env_, "ssd.block.read.transient")) {
    return Status::IOError("injected: block read failed");
  }
  if (sim::FaultAt(env_, "ssd.block.read.timeout")) {
    // Command timeout: the host gives up after a long device stall.
    env_->SleepFor(FromMillis(10));
    return Status::IOError("injected: block read timed out");
  }
  uint64_t bytes = sectors * config_.page_size;
  nand_->Read(bytes);
  if (over_pcie) pcie_->Transfer(bytes);
  return Status::OK();
}

Status HybridSsd::BlockRead(int nsid, uint64_t lba, uint64_t sectors) {
  return BlockReadImpl(nsid, lba, sectors, /*over_pcie=*/true);
}

Status HybridSsd::BlockReadInternal(int nsid, uint64_t lba, uint64_t sectors) {
  return BlockReadImpl(nsid, lba, sectors, /*over_pcie=*/false);
}

Status HybridSsd::BlockTrim(int nsid, uint64_t lba, uint64_t sectors) {
  if (!ValidNsid(nsid)) return Status::InvalidArgument("bad nsid");
  return namespaces_[nsid].block_ftl->Trim(lba, sectors);
}

Status HybridSsd::BlockFlush(int nsid) {
  if (!ValidNsid(nsid)) return Status::InvalidArgument("bad nsid");
  if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
  if (sim::FaultAt(env_, "ssd.block.flush.transient")) {
    return Status::IOError("injected: flush failed");
  }
  // Write cache flush: modeled as a fixed device-side round trip.
  env_->SleepFor(FromMicros(20));
  return Status::OK();
}

Nanos HybridSsd::PcieToDevice(uint64_t bytes) { return pcie_->Transfer(bytes); }
Nanos HybridSsd::PcieToHost(uint64_t bytes) { return pcie_->Transfer(bytes); }
Nanos HybridSsd::NandRead(uint64_t bytes) { return nand_->Read(bytes); }
Nanos HybridSsd::NandWrite(uint64_t bytes) { return nand_->Write(bytes); }
Nanos HybridSsd::NandEraseBlocks(uint64_t blocks) {
  return nand_->Erase(blocks);
}

Status HybridSsd::KvAllocPages(int nsid, uint64_t pages) {
  if (!ValidNsid(nsid)) return Status::InvalidArgument("bad nsid");
  Namespace& ns = namespaces_[nsid];
  if (ns.kv_used_pages + pages > ns.kv_quota_pages) {
    return Status::NoSpace("KV region quota exhausted");
  }
  ns.kv_used_pages += pages;
  return Status::OK();
}

void HybridSsd::KvFreePages(int nsid, uint64_t pages) {
  assert(ValidNsid(nsid));
  Namespace& ns = namespaces_[nsid];
  assert(ns.kv_used_pages >= pages);
  ns.kv_used_pages -= pages;
}

uint64_t HybridSsd::KvUsedPages(int nsid) const {
  assert(ValidNsid(nsid));
  return namespaces_[nsid].kv_used_pages;
}

uint64_t HybridSsd::KvCapacityPages(int nsid) const {
  assert(ValidNsid(nsid));
  return namespaces_[nsid].kv_quota_pages;
}

}  // namespace kvaccel::ssd
