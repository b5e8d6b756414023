// Dev-LSM: the LSM-based key-value write buffer running *inside* the hybrid
// SSD (paper §V-B/§V-E), as in PinK/iLSM-style KV-SSD firmware extended with
// the paper's iterator-based bulky range scan and reset commands.
//
// Placement of costs — every host-visible operation models the full command
// round trip on shared device resources:
//   PCIe link       key/value payload DMA (both directions)
//   firmware core   a single Cortex-A9-speed CpuPool from HybridSsd
//   NAND channels   flush writes, per-run point-read probes, scan reads
//   KV region quota capacity accounting against the disaggregated space
//
// There is deliberately NO device-side read cache for iterator operations:
// Table V's range-query result (KVACCEL ~3x slower than RocksDB) follows
// directly from that omission, which the paper calls out as the bottleneck.
//
// Commands are serialized by a firmware command mutex (single command queue,
// single core), which is what backs KVACCEL's isolation argument (§V-G).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/units.h"
#include "common/value.h"
#include "obs/trace.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::devlsm {

struct DevLsmOptions {
  // Device-DRAM write buffer threshold (logical bytes) before a NAND flush.
  uint64_t memtable_bytes = 32ull << 20;
  // Merge device-side runs when more than this many L0 runs accumulate.
  // The paper disables Dev-LSM compaction for write-only workloads.
  bool compaction_enabled = true;
  int l0_run_trigger = 8;

  // Firmware CPU costs (nominal ns, scaled by the ARM core's speed factor).
  // PUT: 16 us nominal -> 64 us on the Cortex-A9, matching published
  // Cosmos+ KV-SSD store latencies (~50-100 us per 4 KB pair).
  double put_fw_ns = 24000;
  double get_fw_ns = 4000;
  double flush_fw_ns_per_byte = 0.6;
  double compact_fw_ns_per_byte = 1.2;
  double scan_fw_ns_per_entry = 300;

  // DMA chunk for the bulky range scan (paper §V-E: 512 KB, the platform's
  // maximum DMA transfer unit).
  uint64_t dma_chunk = 512 << 10;

  // --- Extension (paper Table V discussion / future work) ---
  // Device-DRAM read cache for iterator batches. The paper attributes
  // KVACCEL's 3x range-query deficit to the LACK of exactly this cache;
  // enabling it lets bench_ablation_dev_read_cache quantify the claim.
  // Bytes of device DRAM dedicated to cached pages (0 = no cache, the
  // paper's configuration).
  uint64_t read_cache_bytes = 0;
};

struct DevLsmStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t compound_cmds = 0;     // PutCompound commands issued
  uint64_t compound_entries = 0;  // entries carried by those commands
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t bulk_scans = 0;
  uint64_t scan_chunks = 0;
  uint64_t resets = 0;
  uint64_t read_cache_hits = 0;
  uint64_t read_cache_misses = 0;
};

class DevLsm {
 public:
  DevLsm(ssd::HybridSsd* ssd, int nsid, const DevLsmOptions& options);
  ~DevLsm();

  // ---- Host-facing KV interface (NVMe-KV command semantics) ----
  // `host_seq` optionally tags the pair with a host-side version number
  // (KVACCEL allocates these from the Main-LSM sequence space so crash
  // recovery can order device pairs against host data). Internal ordering
  // uses a device counter either way.
  Status Put(const Slice& key, const Value& value, uint64_t host_seq = 0);
  Status Delete(const Slice& key, uint64_t host_seq = 0);  // tombstone
  // Compound command (paper §IV, [33]): N puts/deletes ride one NVMe
  // command — one command/completion overhead and one DMA for the whole
  // payload, with the per-pair firmware cost amortized (NAND cost stays
  // per-entry, paid when the device memtable flushes). Entries are applied
  // atomically with respect to other commands (single firmware queue). Each
  // entry's seq is its host_seq; a tombstone is a redirected Delete.
  Status PutCompound(const std::vector<VersionedEntry>& entries);
  // NotFound for absent keys and tombstones.
  Status Get(const Slice& key, Value* value);
  bool Exist(const Slice& key);

  // Iterator-based bulky range scan over a snapshot of the Dev-LSM (paper
  // §V-E): entries stream newest-version-only, in key order, in
  // dma_chunk-sized device->host transfers. `fn` runs host-side after each
  // chunk lands. The command mutex is released between chunks, so PUTs
  // redirected during a long scan are served rather than queued behind it;
  // they are not part of the snapshot. Each entry's seq is its host_seq.
  Status BulkScan(const std::function<void(const VersionedEntry&)>& fn);

  // Device-side iterator for range queries (paper §V-F). Seek/Next fetch
  // dma_chunk batches through the same scan machinery — uncached, so every
  // batch pays device latency.
  class Iterator;
  std::unique_ptr<Iterator> NewIterator();

  // Drops all buffered pairs and frees the KV region pages (paper §V-E
  // step 8: reset after rollback).
  Status Reset() { return ResetUpTo(UINT64_MAX); }
  // Snapshot-bounded reset: drops only entries whose device sequence is
  // <= `up_to_seq` (e.g. LastSeq() captured before a rollback scan), so
  // pairs redirected *during* the rollback survive for the next one
  // (DESIGN.md §5 extension).
  Status ResetUpTo(uint64_t up_to_seq);
  // Device sequence of the most recent write (0 if none yet).
  uint64_t LastSeq() const { return next_seq_ - 1; }

  bool Empty() const;
  uint64_t NumLiveEntries() const;
  uint64_t LogicalBytes() const;
  const DevLsmStats& stats() const { return stats_; }
  uint64_t used_pages() const { return ssd_->KvUsedPages(nsid_); }

 private:
  struct Entry {
    Value value;
    bool tombstone = false;
    uint64_t seq = 0;       // device-internal ordering
    uint64_t host_seq = 0;  // host-assigned version (0 = unversioned)
  };
  // A sorted immutable run persisted in the KV region.
  struct Run {
    std::vector<std::pair<std::string, Entry>> entries;
    uint64_t logical_bytes = 0;
    uint64_t pages = 0;
  };

  using Memtable = std::map<std::string, Entry>;

  // Writes one pair into the device memtable, replacing any older version.
  void InsertLocked(std::string key, Entry e);
  Status FlushMemtableLocked();
  Status CompactRunsLocked();
  using MergedView = std::vector<std::pair<std::string, Entry>>;
  // Newest-version-only view of the whole Dev-LSM (memtable + runs), cached
  // until the next mutation so scan-heavy workloads (rollback, range
  // queries) don't rebuild it per batch.
  std::shared_ptr<const MergedView> SnapshotLocked() const;
  // Calls `fn` once per key of `runs` and, when `mem` is not null, of the
  // memtable, in key order, with the key's newest version: the one with the
  // highest device sequence. Every source is sorted and holds a key at most
  // once, so this is one linear k-way merge. `fn` gets the source's element
  // and may move from it when `runs` is not const.
  template <typename Runs, typename Fn>
  static void MergeNewest(Runs& runs, const Memtable* mem, Fn&& fn);
  uint64_t EntryLogical(const Slice& key, const Entry& e) const;

  ssd::HybridSsd* ssd_;
  int nsid_;
  DevLsmOptions options_;
  sim::SimEnv* env_;

  mutable sim::SimMutex cmd_mu_;  // firmware command queue serialization
  Memtable memtable_;
  uint64_t memtable_logical_ = 0;
  std::vector<Run> runs_;  // oldest first
  uint64_t next_seq_ = 1;
  uint64_t mutation_epoch_ = 0;  // bumped by every state change
  mutable std::shared_ptr<const MergedView> snapshot_cache_;
  mutable uint64_t snapshot_epoch_ = UINT64_MAX;
  // Device-DRAM read cache (extension): tracks which keys' pages are
  // resident; NAND reads are skipped on hits. Invalidated wholesale on
  // mutation epochs (simple firmware cache discipline).
  struct ReadCache {
    uint64_t capacity_bytes = 0;
    uint64_t used_bytes = 0;
    uint64_t epoch = UINT64_MAX;
    std::map<std::string, uint64_t> resident;  // key -> bytes
    std::deque<std::string> fifo;              // resident keys, oldest first
  };
  mutable ReadCache read_cache_;
  // True (and accounts a hit) if `key`'s page is cached; otherwise records
  // the page as resident (evicting the oldest pages beyond capacity) and
  // returns false so the caller charges the NAND read.
  bool ReadCacheLookupOrFill(const std::string& key, uint64_t bytes);
  DevLsmStats stats_;

  // Command spans on the "devlsm" trace track (DESIGN.md §8). Point
  // commands (PUT/GET) coalesce into busy windows; flush/compaction/scan
  // chunks/reset are discrete spans. Null tracer = all of this is inert.
  obs::Tracer* tracer_ = nullptr;
  uint32_t tr_dev_ = 0;
  obs::CoalescingSpan put_span_;
  obs::CoalescingSpan get_span_;
};

// Host-side cursor over the device iterator protocol. Returns user keys and
// decoded values; tombstones are surfaced (callers filter).
//
// The merged view is pinned when the iterator is opened (the device holds
// the snapshot for the iterator handle's lifetime, as NVMe-KV iterators do).
// Without this, a rollback completing between batches would make the
// device's entries vanish mid-scan while the md snapshot still routes their
// keys to the device — the hybrid reader would silently drop keys.
class DevLsm::Iterator {
 public:
  Iterator(DevLsm* dev, std::shared_ptr<const MergedView> view)
      : dev_(dev), view_(std::move(view)) {}

  void SeekToFirst() { Seek(Slice()); }
  void Seek(const Slice& user_key);
  void Next();
  bool Valid() const { return pos_ < buffer_.size(); }
  const std::string& key() const { return buffer_[pos_].key; }
  const Value& value() const { return buffer_[pos_].value; }
  bool tombstone() const { return buffer_[pos_].tombstone; }

 private:
  void FetchBatch(const Slice& start_after, bool inclusive);

  DevLsm* dev_;
  std::shared_ptr<const MergedView> view_;  // snapshot pinned at open
  std::vector<VersionedEntry> buffer_;
  size_t pos_ = 0;
  bool exhausted_ = false;
};

}  // namespace kvaccel::devlsm
