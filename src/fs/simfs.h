// SimFs: an extent-based file system over the HybridSsd block interface —
// the stand-in for ext4 in the paper's host stack (Fig. 6a).
//
// Split of responsibilities (DESIGN.md §1): file *contents* live host-side in
// the inode (the compact physical encoding), while the device carries timing,
// capacity and FTL state. Each file tracks two sizes:
//   - physical: bytes actually buffered in memory (compact Value encodings);
//   - logical:  bytes the file represents on the device (synthetic values
//     count at full size). All LBA allocation and I/O timing uses the
//     logical size, so bandwidth behaviour matches a real-bytes run.
//
// Page-cache model: appends land in the in-memory inode ("page cache") and
// become dirty bytes. Dirty bytes reach the device when
//   - they exceed the file's writeback chunk (streaming files: SSTs), or
//   - the file is Sync()ed (SSTs at finish, MANIFEST per edit), or never —
// a file whose writeback chunk is kLazyWriteback only writes on Sync. Close()
// does NOT write back, and DeleteFile drops dirty bytes without any device
// I/O. This mirrors ext4 + unsynced-WAL db_bench behaviour, where a WAL
// deleted right after its memtable flushed often never touches the device —
// which is what lets write bursts run at memtable speed (paper Fig. 2's
// 150-200 Kops/s peaks).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::fs {

struct Extent {
  uint64_t lba = 0;
  uint64_t sectors = 0;
};

class SimFs;

// Sentinel writeback chunk: never write back except on Sync().
constexpr uint64_t kLazyWriteback = UINT64_MAX;

// Internal file state; exposed for tests/introspection.
struct Inode {
  std::string name;
  std::string data;           // physical (compact) bytes ("page cache")
  uint64_t logical_size = 0;  // device-accounted bytes
  uint64_t allocated_sectors = 0;
  std::vector<Extent> extents;
  bool open_for_write = false;
  // Appended but not yet written back to the device.
  uint64_t dirty_logical = 0;
  uint64_t dirty_physical = 0;
  // Written back but not yet covered by a device cache flush (BlockFlush).
  // A power cut may tear these when the simfs.powercut.torn fault is armed.
  uint64_t unsynced_logical = 0;
  uint64_t unsynced_physical = 0;
};

class WritableFile {
 public:
  WritableFile(SimFs* fs, std::shared_ptr<Inode> inode);
  ~WritableFile();
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  // Appends `physical` bytes representing `logical` device bytes.
  Status Append(const Slice& physical, uint64_t logical);
  Status Append(const Slice& physical) {
    return Append(physical, physical.size());
  }
  // Forces buffered data to the device (partial trailing sector included).
  Status Flush();
  // Flush + device cache flush (fsync).
  Status Sync();
  // Marks the handle closed. Dirty bytes stay in the page cache (readable,
  // dropped for free on delete, lost on SimFs::DropAllDirty "power cut").
  Status Close();
  // Per-file writeback threshold; kLazyWriteback = only Sync writes back.
  void set_writeback_chunk(uint64_t bytes) { writeback_chunk_ = bytes; }
  // Device-side writer (NDP offload): writebacks charge NAND only, no PCIe —
  // the bytes are produced by the firmware merge, not DMA'd from the host.
  void set_device_side(bool v) { device_side_ = v; }

  uint64_t logical_size() const;
  uint64_t physical_size() const;

 private:
  friend class SimFs;
  // Writes buffered logical bytes to the device. When `partial` is false,
  // only whole writeback chunks are issued and the remainder stays buffered.
  Status WriteBack(bool partial);

  SimFs* fs_;
  std::shared_ptr<Inode> inode_;
  uint64_t writeback_chunk_;
  bool closed_ = false;
  bool device_side_ = false;
};

class RandomAccessFile {
 public:
  RandomAccessFile(SimFs* fs, std::shared_ptr<Inode> inode)
      : fs_(fs), inode_(std::move(inode)) {}

  // Reads `n` physical bytes at physical `offset`; device timing is charged
  // proportionally in logical bytes. Short reads at EOF return the available
  // prefix.
  Status Read(uint64_t offset, size_t n, std::string* out) const;

  // Device-side reader (NDP offload): reads charge NAND only, no PCIe — the
  // bytes feed the firmware merge and never cross the link.
  void set_device_side(bool v) { device_side_ = v; }

  uint64_t physical_size() const { return inode_->data.size(); }
  uint64_t logical_size() const { return inode_->logical_size; }

 private:
  SimFs* fs_;
  std::shared_ptr<Inode> inode_;
  bool device_side_ = false;
};

class SimFs {
 public:
  // Files live in the block region of namespace `nsid` on `ssd`.
  SimFs(ssd::HybridSsd* ssd, int nsid, uint64_t writeback_chunk = 256 * 1024);

  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file);
  Status NewRandomAccessFile(const std::string& name,
                             std::unique_ptr<RandomAccessFile>* file) const;
  Status DeleteFile(const std::string& name);
  Status RenameFile(const std::string& from, const std::string& to);
  bool FileExists(const std::string& name) const;
  Status GetFileSize(const std::string& name, uint64_t* logical,
                     uint64_t* physical = nullptr) const;
  std::vector<std::string> GetChildren() const;

  // Power-cut semantics: every file loses its dirty (never-written-back)
  // tail, as the real page cache would across a crash. With the
  // simfs.powercut.torn fault armed, a file may additionally lose its
  // written-back-but-unflushed tail (device write cache torn by the cut).
  void DropAllDirty();

  // Host-directory round trip for offline tooling (kvaccel_check): dump
  // writes every file's physical bytes to `<dir>/<name>` plus a KVX_INDEX
  // recording logical sizes; load repopulates this SimFs from such a dump.
  // Loaded files carry no extents or dirty state — reads are served from the
  // inode page cache and device timing stays well-defined (LBA-clamped).
  Status DumpToHostDir(const std::string& dir) const;
  Status LoadFromHostDir(const std::string& dir);

  uint64_t free_sectors() const { return free_sectors_; }
  uint64_t total_sectors() const { return total_sectors_; }
  uint64_t writeback_chunk() const { return writeback_chunk_; }
  ssd::HybridSsd* ssd() { return ssd_; }
  int nsid() const { return nsid_; }

 private:
  friend class WritableFile;
  friend class RandomAccessFile;

  // Allocates `sectors` (possibly as multiple extents). Fails with NoSpace.
  Status AllocSectors(uint64_t sectors, std::vector<Extent>* out);
  void FreeExtents(const std::vector<Extent>& extents);
  // A BlockFlush is a device-wide cache flush: every file's unsynced bytes
  // become durable.
  void MarkAllSynced();

  ssd::HybridSsd* ssd_;
  int nsid_;
  uint64_t writeback_chunk_;
  uint64_t total_sectors_;
  uint64_t free_sectors_;
  std::map<uint64_t, uint64_t> free_map_;  // lba -> run length (sectors)
  std::map<std::string, std::shared_ptr<Inode>> files_;
};

// Small-file helpers for pointer files (CURRENT, FENCE). Both must run on a
// simulated thread: the read and the sync charge device time.
//
// Reads the whole of `name` with one device read.
Status ReadFileToString(SimFs* fs, const std::string& name,
                        std::string* contents);
// Replaces `name` with `contents` atomically: writes and syncs `name`.tmp,
// then renames it over `name`, so a power cut leaves the old contents or the
// new ones, never a torn file.
Status ReplaceFileAtomically(SimFs* fs, const std::string& name,
                             const Slice& contents);

}  // namespace kvaccel::fs
