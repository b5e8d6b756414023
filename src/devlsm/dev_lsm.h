// Dev-LSM: the LSM-based key-value write buffer running *inside* the hybrid
// SSD (paper §V-B/§V-E), as in PinK/iLSM-style KV-SSD firmware extended with
// the paper's iterator-based bulky range scan and reset commands.
//
// Placement of costs — every host-visible operation models the full command
// round trip on shared device resources:
//   PCIe link       key/value payload DMA (both directions)
//   firmware core   a single Cortex-A9-speed CpuPool from HybridSsd
//   NAND channels   flush writes, merges, point-read probes of the runs
//                   whose Bloom filter may hold the key, scan reads
//   KV region quota capacity accounting against the disaggregated space
//
// There is deliberately NO device-side read cache for iterator operations:
// Table V's range-query result (KVACCEL ~3x slower than RocksDB) follows
// directly from that omission, which the paper calls out as the bottleneck.
//
// Commands are serialized by a firmware command mutex (single command queue,
// single core), which is what backs KVACCEL's isolation argument (§V-G). The
// queue covers a command's firmware work and the device-DRAM state it reads
// or changes, not a Get's NAND page reads: a Get looks its key up under the
// queue and reads the page after releasing it. Size-tiered merges run on one
// background task per device, which holds the queue only to pick its inputs
// and to install its output (DESIGN.md §27). Flush writes, scan chunks and
// iterator batches still hold it across their NAND time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bloom.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/units.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::devlsm {

struct DevLsmOptions {
  // Device-DRAM write buffer threshold (logical bytes) before a NAND flush.
  uint64_t memtable_bytes = 32ull << 20;
  // Size-tiered merges (DESIGN.md §23): when more than `l0_run_trigger`
  // runs of one size class sit at the newest end, they merge into one run
  // of the next class. The paper disables Dev-LSM compaction for
  // write-only workloads.
  bool compaction_enabled = true;
  int l0_run_trigger = 8;

  // DMA chunk for the bulky range scan (paper §V-E: 512 KB, the platform's
  // maximum DMA transfer unit), and the largest iterator batch.
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
  // Logical bytes merges read back from NAND and wrote out again.
  uint64_t compaction_bytes_read = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t bulk_scans = 0;
  uint64_t scan_chunks = 0;
  // Range-query iterator batches that returned pairs, and the NAND pages
  // they read (DESIGN.md §26).
  uint64_t iter_batches = 0;
  uint64_t iter_pages = 0;
  uint64_t resets = 0;
  uint64_t read_cache_hits = 0;
  uint64_t read_cache_misses = 0;
  // Runs a Get read a NAND page of, and runs it skipped because their
  // Bloom filter excluded the key (DESIGN.md §25).
  uint64_t get_nand_probes = 0;
  uint64_t get_filter_skips = 0;
  // Compound puts that waited for the background merge (backpressure), and
  // merges whose output a reset, the NoSpace reclaim or a crash discarded
  // (DESIGN.md §27).
  uint64_t merge_waits = 0;
  uint64_t merge_discarded = 0;

  // The read-cache rows are summed across shards but not reported.
  static constexpr obs::StatField<DevLsmStats> kMetrics[] = {
      {"devlsm.puts", &DevLsmStats::puts},
      {"devlsm.gets", &DevLsmStats::gets},
      {"devlsm.deletes", &DevLsmStats::deletes},
      {"devlsm.compound_cmds", &DevLsmStats::compound_cmds},
      {"devlsm.compound_entries", &DevLsmStats::compound_entries},
      {"devlsm.flushes", &DevLsmStats::flushes},
      {"devlsm.compactions", &DevLsmStats::compactions},
      {"devlsm.compaction.bytes_read", &DevLsmStats::compaction_bytes_read},
      {"devlsm.compaction.bytes_written",
       &DevLsmStats::compaction_bytes_written},
      {"devlsm.bulk_scans", &DevLsmStats::bulk_scans},
      {"devlsm.scan_chunks", &DevLsmStats::scan_chunks},
      {"devlsm.iter.batches", &DevLsmStats::iter_batches},
      {"devlsm.iter.pages", &DevLsmStats::iter_pages},
      {"devlsm.resets", &DevLsmStats::resets},
      {"devlsm.get.nand_probes", &DevLsmStats::get_nand_probes},
      {"devlsm.get.filter_skips", &DevLsmStats::get_filter_skips},
      {"devlsm.merge.waits", &DevLsmStats::merge_waits},
      {"devlsm.merge.discarded", &DevLsmStats::merge_discarded},
      {nullptr, &DevLsmStats::read_cache_hits},
      {nullptr, &DevLsmStats::read_cache_misses},
  };
};

class DevLsm {
 public:
  DevLsm(ssd::HybridSsd* ssd, int nsid, const DevLsmOptions& options);
  // On a simulated thread, stops the merge task first.
  ~DevLsm();

  // ---- Host-facing KV interface (NVMe-KV command semantics) ----
  // Compound command (paper §IV, [33]), the only write command: N
  // puts/deletes ride one NVMe command — one command/completion overhead and
  // one DMA for the whole payload, with the per-pair firmware cost amortized
  // (NAND cost stays per-entry, paid when the device memtable flushes); a
  // one-entry compound costs what a point PUT would. Entries are applied
  // atomically with respect to other commands (single firmware queue). Each
  // entry's seq is its host_seq, a host-side version number (KVACCEL
  // allocates these from the Main-LSM sequence space so crash recovery can
  // order device pairs against host data; internal ordering uses a device
  // counter either way). A tombstone is a redirected Delete. While a merge
  // runs and the newest size class holds more than twice l0_run_trigger
  // runs, the command waits for the merge before it takes any device
  // sequence.
  Status PutCompound(const std::vector<VersionedEntry>& entries);
  // NotFound for absent keys and tombstones. The lookup happens under the
  // command queue; the NAND page reads and the DMA to the host after it.
  Status Get(const Slice& key, Value* value);

  // Iterator-based bulky range scan over a snapshot of the Dev-LSM (paper
  // §V-E): entries stream newest-version-only, in key order, in
  // dma_chunk-sized device->host transfers. `fn` runs host-side after each
  // chunk lands. The command mutex is released between chunks, so PUTs
  // redirected during a long scan are served rather than queued behind it;
  // they are not part of the snapshot. Each entry's seq is its host_seq.
  Status BulkScan(const std::function<void(const VersionedEntry&)>& fn);

  // Device-side iterator for range queries (paper §V-F). Seek and Next
  // fetch batches that ramp from two pages' worth of pairs up to dma_chunk
  // (DESIGN.md §26); each batch is one command that reads one uncached NAND
  // page per pair, so every batch pays device latency.
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

  // Stops the background merge task: a merge in flight installs (or is
  // discarded, after a crash) and the task exits. The next flush that
  // completes a size class's group starts it again. A simulated thread must
  // call it; a no-op when the task is not running.
  void StopMergeTask();
  // True while a merge is between its pick and its install or discard.
  bool merge_in_flight() const { return merge_ != nullptr; }

  bool Empty() const;
  uint64_t NumLiveEntries() const;
  uint64_t LogicalBytes() const;
  // Sorted runs in the KV region.
  size_t num_runs() const { return runs_.size(); }
  const DevLsmStats& stats() const { return stats_; }
  uint64_t used_pages() const { return ssd_->KvUsedPages(nsid_); }

 private:
  friend class DevLsmTestPeer;  // reads each run's keys against its filter

  struct Entry {
    Value value;
    bool tombstone = false;
    uint64_t seq = 0;       // device-internal ordering
    uint64_t host_seq = 0;  // host-assigned version (0 = unversioned)
  };
  using Memtable = std::map<std::string, Entry>;

  // A sorted immutable run persisted in the KV region, packed (DESIGN.md
  // §23): one key arena, one inline-value arena and one fixed 40-byte
  // record per pair, in key order with each key at most once. Its Bloom
  // filter sits in device DRAM (§25), so a Get reads no page of a run that
  // cannot hold the key.
  struct Run {
    struct Record {
      uint64_t seq = 0;       // device-internal ordering
      uint64_t host_seq = 0;  // host-assigned version (0 = unversioned)
      uint64_t payload = 0;   // synthetic seed, or offset into `values`
      uint64_t key_end = 0;   // this key is keys[previous key_end, key_end)
      uint32_t value_size = 0;  // logical value bytes (0 for a tombstone)
      uint8_t flags = 0;
    };
    static_assert(sizeof(Record) == 40);
    static constexpr uint8_t kTombstone = 1;
    static constexpr uint8_t kInline = 2;

    std::vector<Record> records;
    std::string keys;
    std::string values;
    // kBloomBitsPerKey bits per key; empty (matches every key) until
    // BuildFilter runs.
    std::string filter;
    uint64_t logical_bytes = 0;
    uint64_t pages = 0;
    // A flush writes class 0; a merge of class-k runs writes class k + 1.
    int size_class = 0;

    size_t size() const { return records.size(); }
    Slice key(size_t i) const {
      const uint64_t begin = i == 0 ? 0 : records[i - 1].key_end;
      return Slice(keys.data() + begin, records[i].key_end - begin);
    }
    bool tombstone(size_t i) const {
      return (records[i].flags & kTombstone) != 0;
    }
    // Value() for a tombstone.
    Value value(size_t i) const;
    uint64_t logical(size_t i) const {
      return EntryLogical(key(i).size(), tombstone(i), records[i].value_size);
    }
    // The first index whose key is not below `key`.
    size_t LowerBound(const Slice& key) const;
    // Appends a pair whose key sorts after every key already in the run.
    void Add(const Slice& key, const Entry& e);
    void AddFrom(const Run& src, size_t i);
    // Builds `filter` over every key, once the run holds all of them.
    void BuildFilter();
  };

  // A background merge between its pick and its install (DESIGN.md §27).
  struct Merge {
    size_t first = 0;  // the inputs are runs_[first, first + count)
    size_t count = 0;
    uint64_t in_bytes = 0;
    uint64_t in_pages = 0;
    Run out;  // built at the pick; the inputs cannot change until install
    bool discarded = false;
  };

  // Writes one pair into the device memtable, replacing any older version.
  void InsertLocked(std::string key, Entry e);
  Status FlushMemtableLocked();
  // The NoSpace reclaim: merges every run into one of the oldest run's
  // class, which replaces them before the device sleeps on its NAND write.
  void MergeAllRunsLocked();
  // runs_[first, end) merged newest-wins into one run of `out_class`, with
  // its filter and page count.
  Run MergedRunLocked(size_t first, size_t end, int out_class) const;
  // The newest size class's group holding more than `limit` runs, as
  // [*first, *end) of runs_; classes never rise from the oldest run to the
  // newest, so each class is one contiguous segment.
  bool FindGroupLocked(size_t limit, size_t* first, size_t* end) const;
  // Runs of the newest run's class at the newest end of runs_.
  size_t NewestClassRunsLocked() const;
  // After a flush: starts or wakes the merge task when a group is over
  // l0_run_trigger.
  void WakeMergeLocked();
  // The merge task's body: picks a group under cmd_mu_, streams it outside,
  // installs under cmd_mu_, until StopMergeTask.
  void MergeTask();
  // Streams merge_ with cmd_mu_ released across its NAND reads, firmware
  // work and NAND writes, then installs its output; false when the merge
  // was discarded instead. cmd_mu_ is held on entry and exit.
  bool RunMergeLocked();
  // Newest-version-only view of the whole Dev-LSM (memtable + runs) as one
  // packed run, cached until the next mutation so scan-heavy workloads
  // (rollback, range queries) don't rebuild it per batch.
  std::shared_ptr<const Run> SnapshotLocked() const;
  // Every state change: bumps the mutation epoch and drops the cached view
  // (scans and iterators hold their own pin).
  void MutatedLocked();
  // Appends to `out`, in key order, each key of `runs` and, when `mem` is
  // not null, of the memtable, with its newest version (the highest device
  // sequence) when that version's sequence is above `after_seq`. Every
  // source is sorted and holds a key at most once, so this is one linear
  // k-way merge.
  static void MergeNewest(std::span<const Run> runs, const Memtable* mem,
                          uint64_t after_seq, Run* out);
  static uint64_t EntryLogical(uint64_t key_size, bool tombstone,
                               uint64_t value_size) {
    return key_size + 8 + (tombstone ? 0 : value_size);
  }

  ssd::HybridSsd* ssd_;
  int nsid_;
  DevLsmOptions options_;
  sim::SimEnv* env_;

  mutable sim::SimMutex cmd_mu_;  // firmware command queue serialization
  // The merge task, null until a flush first completes a group and after
  // StopMergeTask. It waits on merge_wake_ for work; backpressured puts
  // wait on merge_done_ for the merge in flight to end.
  sim::SimEnv::Thread* merge_task_ = nullptr;
  std::unique_ptr<Merge> merge_;
  bool merge_stop_ = false;
  sim::SimCondVar merge_wake_;
  sim::SimCondVar merge_done_;
  Memtable memtable_;
  uint64_t memtable_logical_ = 0;
  std::vector<Run> runs_;  // oldest first
  uint64_t next_seq_ = 1;
  uint64_t mutation_epoch_ = 0;  // bumped by every state change
  // Null after every state change.
  mutable std::shared_ptr<const Run> snapshot_cache_;
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

  // Command spans on the "devlsm" trace track (DESIGN.md §8). GETs coalesce
  // into busy windows; compound puts, flush/compaction/scan chunks/iterator
  // batches/reset are discrete spans. Null tracer = all of this is inert.
  obs::Tracer* tracer_ = nullptr;
  uint32_t tr_dev_ = 0;
  uint32_t tr_merge_ = 0;  // background merges, which overlap commands
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
  Iterator(DevLsm* dev, std::shared_ptr<const Run> view)
      : dev_(dev), view_(std::move(view)) {}

  void SeekToFirst() { Seek(Slice()); }
  void Seek(const Slice& user_key);
  void Next();
  bool Valid() const { return pos_ < buffer_.size(); }
  const std::string& key() const { return buffer_[pos_].key; }
  const Value& value() const { return buffer_[pos_].value; }
  bool tombstone() const { return buffer_[pos_].tombstone; }

 private:
  // Fetches the next batch: the first after a Seek holds kFirstBatchPages
  // pages' worth of pairs, and each refill doubles the byte budget up to
  // dma_chunk, so a short scan reads few pages it never returns.
  void FetchBatch(const Slice& start_after, bool inclusive);

  static constexpr uint64_t kFirstBatchPages = 2;

  DevLsm* dev_;
  std::shared_ptr<const Run> view_;  // snapshot pinned at open
  std::vector<VersionedEntry> buffer_;
  size_t pos_ = 0;
  bool exhausted_ = false;
  // Byte budget of the last batch; 0 until the first batch after a Seek.
  uint64_t batch_budget_ = 0;
};

}  // namespace kvaccel::devlsm
