// Arena: bump allocator backing memtable skiplists. Nodes allocated from an
// arena are freed wholesale when the memtable is dropped, which is both the
// RocksDB idiom and the reason memtable size accounting (ApproximateMemoryUsage)
// is O(1).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace kvaccel {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(size_t bytes) {
    assert(bytes > 0);
    if (bytes <= alloc_bytes_remaining_) {
      char* result = alloc_ptr_;
      alloc_ptr_ += bytes;
      alloc_bytes_remaining_ -= bytes;
      return result;
    }
    return AllocateFallback(bytes);
  }

  char* AllocateAligned(size_t bytes) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    size_t current_mod = reinterpret_cast<uintptr_t>(alloc_ptr_) & (kAlign - 1);
    size_t slop = (current_mod == 0 ? 0 : kAlign - current_mod);
    size_t needed = bytes + slop;
    if (needed <= alloc_bytes_remaining_) {
      char* result = alloc_ptr_ + slop;
      alloc_ptr_ += needed;
      alloc_bytes_remaining_ -= needed;
      return result;
    }
    // AllocateFallback always returns max_align_t-aligned memory.
    return AllocateFallback(bytes);
  }

  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kBlockSize = 1 << 20;  // 1 MiB

  char* AllocateFallback(size_t bytes) {
    if (bytes > kBlockSize / 4) {
      // Large object: dedicated allocation so we don't waste block space.
      return AllocateNewBlock(bytes);
    }
    alloc_ptr_ = AllocateNewBlock(kBlockSize);
    alloc_bytes_remaining_ = kBlockSize;
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }

  char* AllocateNewBlock(size_t block_bytes) {
    // Uninitialised: every byte handed out is written before it is read,
    // and untouched pages of a fresh block stay off the resident set.
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(block_bytes));
    memory_usage_.fetch_add(block_bytes + sizeof(blocks_.back()),
                            std::memory_order_relaxed);
    return blocks_.back().get();
  }

  char* alloc_ptr_ = nullptr;
  size_t alloc_bytes_remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::atomic<size_t> memory_usage_{0};
};

}  // namespace kvaccel
