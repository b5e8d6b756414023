// Page-mapped Flash Translation Layer with greedy garbage collection.
//
// The FTL tracks the logical→physical page mapping, per-block valid counts,
// and a free-block pool with overprovisioned headroom. Overwrites invalidate
// the previous physical page; when the free pool drops below the GC
// threshold, greedy victim selection relocates the fewest valid pages. The
// cost of GC data movement is charged to the NAND model through a caller-
// provided callback, so garbage collection competes for the same device
// bandwidth as everything else (paper §V-D: both interfaces share the FTL
// mechanisms of a conventional SSD).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"

namespace kvaccel::ssd {

class Ftl {
 public:
  struct Options {
    uint64_t logical_pages = 0;
    uint64_t pages_per_block = 256;
    double overprovision = 0.07;
    // Run GC when free blocks fall below this fraction of physical blocks.
    double gc_free_threshold = 0.08;
  };

  // Charged whenever GC moves data: (relocated_pages, erased_blocks).
  using GcIoFn = std::function<void(uint64_t, uint64_t)>;

  // Page-table entries are 32-bit, so a device may hold at most this many
  // physical pages (16 TiB of 4 KiB pages). The constructor aborts past it.
  static constexpr uint64_t kMaxPhysicalPages = UINT32_MAX;

  // Physical blocks behind `options`: the logical blocks plus
  // overprovisioning, never fewer than logical blocks + 2.
  static uint64_t PhysicalBlocks(const Options& options);

  Ftl(const Options& options, GcIoFn gc_io);
  // The page tables are mappings this object owns.
  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  // Maps `count` logical pages starting at `lpn` to fresh physical pages,
  // invalidating any previous mapping. Fails with NoSpace when the device is
  // genuinely full (no reclaimable invalid pages).
  Status Write(uint64_t lpn, uint64_t count);

  // Unmaps (invalidates) the range; harmless on unmapped pages.
  Status Trim(uint64_t lpn, uint64_t count);

  bool IsMapped(uint64_t lpn) const;

  uint64_t logical_pages() const { return options_.logical_pages; }
  uint64_t valid_pages() const { return valid_pages_; }
  uint64_t free_blocks() const { return free_blocks_.size(); }
  uint64_t physical_blocks() const { return physical_blocks_; }
  uint64_t relocated_pages() const { return relocated_pages_; }
  uint64_t erased_blocks() const { return erased_blocks_; }
  uint64_t gc_runs() const { return gc_runs_; }

  // Write amplification observed so far: (host + GC writes) / host writes.
  double write_amplification() const {
    if (host_written_pages_ == 0) return 1.0;
    return static_cast<double>(host_written_pages_ + relocated_pages_) /
           static_cast<double>(host_written_pages_);
  }

 private:
  // Table entries are encoded so that zero is every entry's initial state.
  // map_: 0 = unmapped, else ppn + 1. rmap_: 0 = no valid page (free or
  // stale), else lpn + 1. A block without a valid page is all zeros in
  // rmap_, so its table page can go back to the zero page.
  static constexpr uint32_t kUnmapped = 0;
  static constexpr uint32_t kNoLpn = 0;
  static constexpr uint32_t kFirstLpn = 1;
  static constexpr uint64_t kNone = UINT64_MAX;  // no page, no block

  // A table in anonymous memory that reads as zero pages: building one
  // touches nothing, and a page becomes resident only once written.
  struct Unmapper {
    size_t bytes;  // zero in an empty PageTable's value-initialised deleter
    void operator()(uint32_t* table) const;
  };
  using PageTable = std::unique_ptr<uint32_t[], Unmapper>;
  static PageTable MapZeroPages(uint64_t entries);

  // Allocates one physical page from the active block (sealing and pulling
  // from the free pool as needed). Returns kNone if out of space.
  uint64_t AllocPage();
  void InvalidatePhysical(uint64_t ppn);
  // Returns the rmap_ pages holding `block`'s entries to the zero page once
  // every block on them is without a valid page.
  void ReleaseRmapPages(uint64_t block);
  void MaybeGc();
  bool GcOnce();

  Options options_;
  GcIoFn gc_io_;
  uint64_t physical_blocks_;
  PageTable map_;   // lpn -> ppn + 1, or kUnmapped
  PageTable rmap_;  // ppn -> lpn + 1, or kNoLpn
  uint64_t rmap_page_entries_;  // rmap_ entries per OS page
  std::vector<uint32_t> block_valid_;
  std::vector<uint8_t> block_is_free_;
  std::deque<uint64_t> free_blocks_;
  uint64_t active_block_ = kNone;
  uint64_t active_next_page_ = 0;
  uint64_t valid_pages_ = 0;
  uint64_t host_written_pages_ = 0;
  uint64_t relocated_pages_ = 0;
  uint64_t erased_blocks_ = 0;
  uint64_t gc_runs_ = 0;
};

}  // namespace kvaccel::ssd
