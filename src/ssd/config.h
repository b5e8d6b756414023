// Configuration of the simulated hybrid dual-interface SSD, defaulted to the
// Cosmos+ OpenSSD prototype of the paper (Table I): 1 TB NAND, 4 channels ×
// 8 ways, ~630 MB/s device bandwidth, PCIe Gen2 ×8 (4 GB/s theoretical), a
// single ARM Cortex-A9 core running the key-value firmware.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace kvaccel::ssd {

struct SsdConfig {
  // --- Geometry ---
  int channels = 4;
  int ways_per_channel = 8;
  // Simplification vs. real Cosmos+ (16 KB pages): page == 4 KB == one LBA
  // sector, so the FTL maps sectors directly. Timing is carried by the
  // channel bandwidth model, not per-page constants, so this does not change
  // any bandwidth result.
  uint64_t page_size = 4096;
  uint64_t pages_per_block = 256;  // 1 MiB erase blocks
  // Logical capacity of the whole device (block + KV regions). Scaled down
  // from 1 TB by default so unit tests can exercise GC; benches override.
  uint64_t capacity_bytes = 8ull << 30;
  // Physical overprovisioning factor (extra NAND beyond logical capacity).
  double overprovision = 0.07;

  // --- Performance ---
  // Aggregate sustained NAND bandwidth (the paper's ~630 MB/s), divided
  // evenly across channels.
  double nand_bytes_per_sec = 630.0 * 1e6;
  // PCIe Gen2 x8 theoretical maximum.
  double pcie_bytes_per_sec = 4.0 * 1e9;

  // --- Disaggregation (paper §V-D) ---
  // Fraction of the logical NAND address space left of the disaggregation
  // point (block interface). The remainder backs the key-value region.
  double block_region_fraction = 0.75;

  // --- Firmware (device-side compute) ---
  int firmware_cores = 1;
  // Cortex-A9 @ 1 GHz vs. host Xeon: nominal work units take ~4x longer.
  double firmware_speed = 0.25;

  // --- Namespaces (multi-tenancy, paper §V-D) ---
  int num_namespaces = 1;

  // GC trigger: collect when free physical blocks drop below this fraction.
  double gc_free_threshold = 0.08;

  uint64_t total_pages() const { return capacity_bytes / page_size; }
  uint64_t block_region_pages() const {
    return static_cast<uint64_t>(static_cast<double>(total_pages()) *
                                 block_region_fraction);
  }
  uint64_t kv_region_pages() const {
    return total_pages() - block_region_pages();
  }
};

}  // namespace kvaccel::ssd
