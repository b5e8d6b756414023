#include "ssd/ftl.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace kvaccel::ssd {

void Ftl::Unmapper::operator()(uint32_t* table) const {
  munmap(table, bytes);
}

Ftl::PageTable Ftl::MapZeroPages(uint64_t entries) {
  size_t bytes = entries * sizeof(uint32_t);
  void* m = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  return PageTable(static_cast<uint32_t*>(m), Unmapper{bytes});
}

uint64_t Ftl::PhysicalBlocks(const Options& options) {
  uint64_t logical_blocks =
      (options.logical_pages + options.pages_per_block - 1) /
      options.pages_per_block;
  uint64_t blocks = static_cast<uint64_t>(std::ceil(
      static_cast<double>(logical_blocks) * (1.0 + options.overprovision)));
  return std::max(blocks, logical_blocks + 2);
}

Ftl::Ftl(const Options& options, GcIoFn gc_io)
    : options_(options), gc_io_(std::move(gc_io)) {
  assert(options.pages_per_block > 0);
  physical_blocks_ = PhysicalBlocks(options);
  uint64_t physical_pages = physical_blocks_ * options.pages_per_block;
  // The device size comes from outside input (a bench's --scale), so this
  // check stays in every build.
  if (options.logical_pages == 0 || physical_pages > kMaxPhysicalPages) {
    fprintf(stderr,
            "FTL: %llu logical pages need %llu physical pages; the 32-bit "
            "page tables hold 1 to %llu\n",
            static_cast<unsigned long long>(options.logical_pages),
            static_cast<unsigned long long>(physical_pages),
            static_cast<unsigned long long>(kMaxPhysicalPages));
    std::abort();
  }
  map_ = MapZeroPages(options.logical_pages);
  rmap_ = MapZeroPages(physical_pages);
  rmap_page_entries_ =
      static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / sizeof(uint32_t);
  block_valid_.assign(physical_blocks_, 0);
  block_is_free_.assign(physical_blocks_, 1);
  for (uint64_t b = 0; b < physical_blocks_; b++) free_blocks_.push_back(b);
}

uint64_t Ftl::AllocPage() {
  if (active_block_ == kNone ||
      active_next_page_ == options_.pages_per_block) {
    if (free_blocks_.empty()) return kNone;
    active_block_ = free_blocks_.front();
    free_blocks_.pop_front();
    block_is_free_[active_block_] = 0;
    active_next_page_ = 0;
  }
  return active_block_ * options_.pages_per_block + active_next_page_++;
}

void Ftl::InvalidatePhysical(uint64_t ppn) {
  assert(rmap_[ppn] >= kFirstLpn);
  rmap_[ppn] = kNoLpn;
  uint64_t block = ppn / options_.pages_per_block;
  assert(block_valid_[block] > 0);
  if (--block_valid_[block] == 0) ReleaseRmapPages(block);
}

void Ftl::ReleaseRmapPages(uint64_t block) {
  const uint64_t ppb = options_.pages_per_block;
  const uint64_t pages = physical_blocks_ * ppb;
  for (uint64_t page = block * ppb / rmap_page_entries_;
       page <= ((block + 1) * ppb - 1) / rmap_page_entries_; page++) {
    const uint64_t begin = page * rmap_page_entries_;
    const uint64_t end = std::min(begin + rmap_page_entries_, pages);
    bool empty = true;
    for (uint64_t b = begin / ppb; empty && b * ppb < end; b++) {
      empty = block_valid_[b] == 0;
    }
    // Every entry on the page is kNoLpn, which is what the zero page reads.
    if (empty) {
      madvise(&rmap_[begin], rmap_page_entries_ * sizeof(uint32_t),
              MADV_DONTNEED);
    }
  }
}

Status Ftl::Write(uint64_t lpn, uint64_t count) {
  if (lpn + count > options_.logical_pages) {
    return Status::InvalidArgument("FTL write beyond logical capacity");
  }
  for (uint64_t i = 0; i < count; i++) {
    uint64_t l = lpn + i;
    MaybeGc();
    uint64_t ppn = AllocPage();
    if (ppn == kNone) return Status::NoSpace("FTL out of NAND blocks");
    // The new page counts before the old one goes, so a block holding both
    // never reads empty in between.
    uint32_t old = map_[l];
    map_[l] = static_cast<uint32_t>(ppn + 1);
    rmap_[ppn] = static_cast<uint32_t>(l + kFirstLpn);
    block_valid_[ppn / options_.pages_per_block]++;
    if (old != kUnmapped) {
      InvalidatePhysical(old - 1);
    } else {
      valid_pages_++;
    }
    host_written_pages_++;
  }
  return Status::OK();
}

Status Ftl::Trim(uint64_t lpn, uint64_t count) {
  if (lpn + count > options_.logical_pages) {
    return Status::InvalidArgument("FTL trim beyond logical capacity");
  }
  for (uint64_t i = 0; i < count; i++) {
    uint64_t l = lpn + i;
    if (map_[l] != kUnmapped) {
      InvalidatePhysical(map_[l] - 1);
      map_[l] = kUnmapped;
      valid_pages_--;
    }
  }
  return Status::OK();
}

bool Ftl::IsMapped(uint64_t lpn) const {
  return lpn < options_.logical_pages && map_[lpn] != kUnmapped;
}

void Ftl::MaybeGc() {
  uint64_t threshold = std::max<uint64_t>(
      2, static_cast<uint64_t>(static_cast<double>(physical_blocks_) *
                               options_.gc_free_threshold));
  while (free_blocks_.size() < threshold) {
    if (!GcOnce()) break;
  }
}

bool Ftl::GcOnce() {
  // Greedy victim: sealed block with the fewest valid pages. Blocks that are
  // entirely valid reclaim nothing — if only those remain, GC cannot help.
  uint64_t victim = kNone;
  uint32_t best_valid = static_cast<uint32_t>(options_.pages_per_block);
  for (uint64_t b = 0; b < physical_blocks_; b++) {
    if (b == active_block_ || block_is_free_[b]) continue;
    if (block_valid_[b] < best_valid) {
      best_valid = block_valid_[b];
      victim = b;
    }
  }
  if (victim == kNone || best_valid == options_.pages_per_block) {
    return false;
  }
  gc_runs_++;
  uint64_t moved = 0;
  uint64_t first = victim * options_.pages_per_block;
  for (uint64_t ppn = first; ppn < first + options_.pages_per_block; ppn++) {
    uint32_t entry = rmap_[ppn];
    if (entry < kFirstLpn) continue;  // free or invalid
    uint64_t dst = AllocPage();
    if (dst == kNone) return false;  // shouldn't happen mid-GC
    rmap_[ppn] = kNoLpn;
    block_valid_[victim]--;
    map_[entry - kFirstLpn] = static_cast<uint32_t>(dst + 1);
    rmap_[dst] = entry;
    block_valid_[dst / options_.pages_per_block]++;
    moved++;
  }
  // Erase and return to the pool: relocation left every entry kNoLpn.
  assert(block_valid_[victim] == 0);
  ReleaseRmapPages(victim);
  free_blocks_.push_back(victim);
  block_is_free_[victim] = 1;
  relocated_pages_ += moved;
  erased_blocks_++;
  if (gc_io_) gc_io_(moved, 1);
  return true;
}

}  // namespace kvaccel::ssd
