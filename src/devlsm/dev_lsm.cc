#include "devlsm/dev_lsm.h"

#include <algorithm>
#include <cassert>

#include "sim/fault.h"

namespace kvaccel::devlsm {

namespace {
// Fixed NVMe command/completion footprint on the link, beyond the payload.
constexpr uint64_t kCommandOverheadBytes = 64;
// Firmware CPU costs (nominal ns, scaled by the ARM core's speed factor).
// PUT: 16 us nominal -> 64 us on the Cortex-A9, matching published
// Cosmos+ KV-SSD store latencies (~50-100 us per 4 KB pair).
constexpr double kPutFwNs = 24000;
constexpr double kGetFwNs = 4000;
constexpr double kFlushFwNsPerByte = 0.6;
constexpr double kCompactFwNsPerByte = 1.2;
constexpr double kScanFwNsPerEntry = 300;
}  // namespace

DevLsm::DevLsm(ssd::HybridSsd* ssd, int nsid, const DevLsmOptions& options)
    : ssd_(ssd), nsid_(nsid), options_(options), env_(ssd->env()) {
  tracer_ = env_->tracer();
  if (tracer_ != nullptr) {
    tr_dev_ = tracer_->RegisterTrack("devlsm");
    get_span_.Init(tracer_, tr_dev_, "dev.get", FromMicros(50));
  }
}

DevLsm::~DevLsm() {
  // The tracer outlives the DB world; close out coalesced busy windows so
  // the last burst isn't lost (see obs::CoalescingSpan lifetime rule).
  get_span_.Flush();
}

uint64_t DevLsm::EntryLogical(const Slice& key, const Entry& e) const {
  return key.size() + 8 + (e.tombstone ? 0 : e.value.logical_size());
}

void DevLsm::InsertLocked(std::string key, Entry e) {
  auto [it, inserted] = memtable_.try_emplace(std::move(key));
  if (!inserted) memtable_logical_ -= EntryLogical(it->first, it->second);
  it->second = std::move(e);
  memtable_logical_ += EntryLogical(it->first, it->second);
}

template <typename Runs, typename Fn>
void DevLsm::MergeNewest(Runs& runs, const Memtable* mem, Fn&& fn) {
  // Sources 0..n-1 are the runs, source n the memtable.
  const size_t n = runs.size();
  std::vector<size_t> pos(n, 0);
  Memtable::const_iterator mem_it =
      mem != nullptr ? mem->begin() : Memtable::const_iterator();
  struct Head {
    const std::string* key;
    uint64_t seq;
    size_t src;
  };
  auto head_of = [&](size_t src, Head* h) {
    if (src == n) {
      if (mem_it == mem->end()) return false;
      *h = {&mem_it->first, mem_it->second.seq, src};
      return true;
    }
    const auto& entries = runs[src].entries;
    if (pos[src] == entries.size()) return false;
    *h = {&entries[pos[src]].first, entries[pos[src]].second.seq, src};
    return true;
  };
  // Max-heap order: the smallest key on top and, among equal keys, the
  // highest sequence.
  auto after = [](const Head& a, const Head& b) {
    int c = a.key->compare(*b.key);
    return c != 0 ? c > 0 : a.seq < b.seq;
  };
  std::vector<Head> heap;
  heap.reserve(n + 1);
  Head h{};
  for (size_t src = 0; src < n + (mem != nullptr ? 1 : 0); src++) {
    if (head_of(src, &h)) heap.push_back(h);
  }
  std::make_heap(heap.begin(), heap.end(), after);
  auto pop = [&] {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head top = heap.back();
    heap.pop_back();
    return top;
  };
  auto advance = [&](size_t src) {
    if (src == n) {
      ++mem_it;
    } else {
      pos[src]++;
    }
    Head next{};
    if (head_of(src, &next)) {
      heap.push_back(next);
      std::push_heap(heap.begin(), heap.end(), after);
    }
  };
  while (!heap.empty()) {
    const Head top = pop();
    // Older versions of the same key sit right below it: drop them.
    while (!heap.empty() && *heap.front().key == *top.key) advance(pop().src);
    if (top.src == n) {
      fn(*mem_it);
    } else {
      fn(runs[top.src].entries[pos[top.src]]);
    }
    advance(top.src);
  }
}

Status DevLsm::PutCompound(const std::vector<VersionedEntry>& entries) {
  if (entries.empty()) return Status::OK();
  sim::SimLockGuard l(cmd_mu_);
  if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
  if (sim::FaultAt(env_, "devlsm.put.transient")) {
    return Status::IOError("injected: KV compound command failed");
  }
  uint64_t payload = 0;
  for (const VersionedEntry& e : entries) {
    payload += e.key.size() + (e.tombstone ? 0 : e.value.logical_size());
  }
  Nanos cmd_start = tracer_ != nullptr ? env_->Now() : 0;
  ssd_->PcieToDevice(kCommandOverheadBytes + payload);
  // Command handling once; per-pair insert work amortizes to roughly a
  // third of a standalone PUT (no per-command parsing/completion).
  ssd_->firmware()->Consume(
      kPutFwNs + kPutFwNs / 3.0 * static_cast<double>(entries.size() - 1));
  stats_.compound_cmds++;
  stats_.compound_entries += entries.size();
  for (const VersionedEntry& ve : entries) {
    Entry e;
    if (ve.tombstone) {
      stats_.deletes++;
    } else {
      stats_.puts++;
      e.value = ve.value;
    }
    e.tombstone = ve.tombstone;
    e.seq = next_seq_++;
    e.host_seq = ve.seq;
    InsertLocked(ve.key, std::move(e));
  }
  MutatedLocked();
  if (tracer_ != nullptr) {
    tracer_->Complete(tr_dev_, "dev.put_compound", cmd_start, env_->Now(),
                      payload);
  }
  if (memtable_logical_ >= options_.memtable_bytes) {
    return FlushMemtableLocked();
  }
  return Status::OK();
}

Status DevLsm::Get(const Slice& key, Value* value) {
  sim::SimLockGuard l(cmd_mu_);
  if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
  if (sim::FaultAt(env_, "devlsm.get.transient")) {
    return Status::IOError("injected: KV retrieve command failed");
  }
  stats_.gets++;
  Nanos cmd_start = tracer_ != nullptr ? env_->Now() : 0;
  ssd_->PcieToDevice(kCommandOverheadBytes + key.size());
  ssd_->firmware()->Consume(kGetFwNs);

  std::string k = key.ToString();
  const Entry* found = nullptr;
  auto mit = memtable_.find(k);
  if (mit != memtable_.end()) {
    found = &mit->second;  // device DRAM: no NAND read
  } else {
    // Probe runs newest-first; each probe reads one NAND page unless a
    // configured device read cache holds it (paper config: no cache — the
    // Table V bottleneck).
    for (auto rit = runs_.rbegin(); rit != runs_.rend() && !found; ++rit) {
      const auto& entries = rit->entries;
      auto it = std::lower_bound(
          entries.begin(), entries.end(), k,
          [](const auto& a, const std::string& b) { return a.first < b; });
      if (!ReadCacheLookupOrFill(k, ssd_->config().page_size)) {
        ssd_->NandRead(ssd_->config().page_size);
      }
      if (it != entries.end() && it->first == k) found = &it->second;
    }
  }
  if (found == nullptr || found->tombstone) {
    if (tracer_ != nullptr) get_span_.Add(cmd_start, env_->Now(), key.size());
    return Status::NotFound("not in Dev-LSM");
  }
  *value = found->value;
  ssd_->PcieToHost(found->value.logical_size());
  if (tracer_ != nullptr) {
    get_span_.Add(cmd_start, env_->Now(), found->value.logical_size());
  }
  return Status::OK();
}

Status DevLsm::FlushMemtableLocked() {
  if (memtable_.empty()) return Status::OK();
  Nanos flush_start = tracer_ != nullptr ? env_->Now() : 0;
  Run run;
  run.logical_bytes = memtable_logical_;
  const uint64_t page = ssd_->config().page_size;
  run.pages = (run.logical_bytes + page - 1) / page;

  Status s = ssd_->KvAllocPages(nsid_, run.pages);
  if (!s.ok() && options_.compaction_enabled) {
    // Try to reclaim space by merging runs, then retry once.
    Status cs = CompactRunsLocked();
    if (cs.ok()) s = ssd_->KvAllocPages(nsid_, run.pages);
  }
  if (!s.ok()) return s;

  ssd_->firmware()->Consume(kFlushFwNsPerByte *
                            static_cast<double>(run.logical_bytes));
  const uint64_t flushed_bytes = run.logical_bytes;
  ssd_->NandWrite(run.logical_bytes);
  // The memtable stays whole until the run lands: Empty() is read without
  // the command mutex while this thread sleeps on the device.
  run.entries.reserve(memtable_.size());
  while (!memtable_.empty()) {
    auto node = memtable_.extract(memtable_.begin());
    run.entries.emplace_back(std::move(node.key()), std::move(node.mapped()));
  }
  runs_.push_back(std::move(run));
  memtable_logical_ = 0;
  MutatedLocked();
  stats_.flushes++;
  if (tracer_ != nullptr) {
    tracer_->Complete(tr_dev_, "dev.flush", flush_start, env_->Now(),
                      flushed_bytes);
  }

  if (options_.compaction_enabled &&
      static_cast<int>(runs_.size()) > options_.l0_run_trigger) {
    return CompactRunsLocked();
  }
  return Status::OK();
}

Status DevLsm::CompactRunsLocked() {
  if (runs_.size() < 2) return Status::OK();
  Nanos compact_start = tracer_ != nullptr ? env_->Now() : 0;
  uint64_t in_bytes = 0;
  uint64_t in_pages = 0;
  uint64_t in_entries = 0;
  for (const auto& r : runs_) {
    in_bytes += r.logical_bytes;
    in_pages += r.pages;
    in_entries += r.entries.size();
  }
  ssd_->NandRead(in_bytes);
  ssd_->firmware()->Consume(kCompactFwNsPerByte *
                            static_cast<double>(in_bytes));

  // Newest wins; tombstones are retained (they may shadow Main-LSM data).
  // The inputs are replaced below, so their entries move into the output.
  Run out;
  out.entries.reserve(in_entries);
  MergeNewest(runs_, nullptr, [&](auto& kv) {
    out.logical_bytes += EntryLogical(kv.first, kv.second);
    out.entries.push_back(std::move(kv));
  });
  const uint64_t page = ssd_->config().page_size;
  out.pages = (out.logical_bytes + page - 1) / page;

  ssd_->NandWrite(out.logical_bytes);
  ssd_->KvFreePages(nsid_, in_pages);
  Status s = ssd_->KvAllocPages(nsid_, out.pages);
  if (!s.ok()) return s;
  uint64_t erase_blocks =
      std::max<uint64_t>(1, in_pages / ssd_->config().pages_per_block);
  ssd_->NandEraseBlocks(erase_blocks);
  runs_.clear();
  runs_.push_back(std::move(out));
  MutatedLocked();
  stats_.compactions++;
  if (tracer_ != nullptr) {
    tracer_->Complete(tr_dev_, "dev.compact", compact_start, env_->Now(),
                      in_bytes);
  }
  return Status::OK();
}

bool DevLsm::ReadCacheLookupOrFill(const std::string& key, uint64_t bytes) {
  if (options_.read_cache_bytes == 0) return false;
  if (read_cache_.epoch != mutation_epoch_) {
    // Firmware invalidates the whole cache when the store mutates.
    read_cache_.resident.clear();
    read_cache_.fifo.clear();
    read_cache_.used_bytes = 0;
    read_cache_.epoch = mutation_epoch_;
    read_cache_.capacity_bytes = options_.read_cache_bytes;
  }
  auto it = read_cache_.resident.find(key);
  if (it != read_cache_.resident.end()) {
    stats_.read_cache_hits++;
    return true;
  }
  stats_.read_cache_misses++;
  read_cache_.used_bytes += bytes;
  read_cache_.resident.emplace(key, bytes);
  read_cache_.fifo.push_back(key);
  while (read_cache_.used_bytes > read_cache_.capacity_bytes &&
         !read_cache_.fifo.empty()) {
    auto victim = read_cache_.resident.find(read_cache_.fifo.front());
    read_cache_.used_bytes -= victim->second;
    read_cache_.resident.erase(victim);
    read_cache_.fifo.pop_front();
  }
  return false;
}

void DevLsm::MutatedLocked() {
  mutation_epoch_++;
  snapshot_cache_.reset();
}

std::shared_ptr<const DevLsm::MergedView> DevLsm::SnapshotLocked() const {
  if (snapshot_cache_ != nullptr) return snapshot_cache_;
  auto view = std::make_shared<MergedView>();
  view->reserve(NumLiveEntries());
  MergeNewest(runs_, &memtable_,
              [&](const auto& kv) { view->emplace_back(kv.first, kv.second); });
  snapshot_cache_ = std::move(view);
  return snapshot_cache_;
}

Status DevLsm::BulkScan(
    const std::function<void(const VersionedEntry&)>& fn) {
  std::shared_ptr<const MergedView> view_snapshot;
  {
    // Snapshot under the command mutex, then release it: a rollback-sized
    // scan must not block concurrent redirected PUTs for its whole duration.
    sim::SimLockGuard l(cmd_mu_);
    stats_.bulk_scans++;
    view_snapshot = SnapshotLocked();
  }
  const MergedView& view = *view_snapshot;

  // Stream in dma_chunk-sized bursts: NAND read, firmware serialization,
  // then one DMA to host memory (paper §V-E steps 3-6). A chunk is the view
  // range [chunk_begin, end); its entries reach `fn` once it has landed.
  size_t chunk_begin = 0;
  uint64_t chunk_bytes = 0;
  VersionedEntry out;
  auto ship_chunk = [&](size_t end) {
    if (end == chunk_begin) return;
    {
      sim::SimLockGuard l(cmd_mu_);
      stats_.scan_chunks++;
      Nanos chunk_start = tracer_ != nullptr ? env_->Now() : 0;
      ssd_->NandRead(chunk_bytes);
      ssd_->firmware()->Consume(kScanFwNsPerEntry *
                                static_cast<double>(end - chunk_begin));
      ssd_->PcieToHost(chunk_bytes);
      if (tracer_ != nullptr) {
        tracer_->Complete(tr_dev_, "dev.scan_chunk", chunk_start, env_->Now(),
                          chunk_bytes);
      }
    }
    for (size_t i = chunk_begin; i < end; i++) {
      const auto& [k, e] = view[i];
      out.key = k;
      out.value = e.value;
      out.tombstone = e.tombstone;
      out.seq = e.host_seq;
      fn(out);
    }
    chunk_begin = end;
    chunk_bytes = 0;
  };

  for (size_t i = 0; i < view.size(); i++) {
    chunk_bytes += EntryLogical(view[i].first, view[i].second);
    if (chunk_bytes >= options_.dma_chunk) ship_chunk(i + 1);
  }
  ship_chunk(view.size());
  return Status::OK();
}

Status DevLsm::ResetUpTo(uint64_t up_to_seq) {
  sim::SimLockGuard l(cmd_mu_);
  stats_.resets++;
  Nanos reset_start = tracer_ != nullptr ? env_->Now() : 0;

  uint64_t old_pages = 0;
  for (const auto& r : runs_) old_pages += r.pages;

  // Survivors: entries written after the snapshot bound. A key's newest
  // run version survives exactly when any of its versions does, and the
  // runs are dropped below, so their survivors move into one run.
  std::erase_if(memtable_,
                [&](const auto& kv) { return kv.second.seq <= up_to_seq; });
  memtable_logical_ = 0;
  for (const auto& [k, e] : memtable_) memtable_logical_ += EntryLogical(k, e);
  Run surviving_run;
  MergeNewest(runs_, nullptr, [&](auto& kv) {
    if (kv.second.seq > up_to_seq) {
      surviving_run.entries.push_back(std::move(kv));
    }
  });

  for (const auto& [k, e] : surviving_run.entries) {
    surviving_run.logical_bytes += EntryLogical(k, e);
  }
  const uint64_t survivor_bytes = surviving_run.logical_bytes;
  const uint64_t page = ssd_->config().page_size;
  surviving_run.pages = (survivor_bytes + page - 1) / page;

  // The survivors replace the runs before the device sleeps: Empty() is read
  // without the command mutex, and a direct write that sees an empty device
  // keeps the metadata record of the surviving version it supersedes.
  runs_.clear();
  if (old_pages > 0) ssd_->KvFreePages(nsid_, old_pages);
  if (survivor_bytes > 0) {
    Status s = ssd_->KvAllocPages(nsid_, surviving_run.pages);
    if (!s.ok()) return s;
    runs_.push_back(std::move(surviving_run));
  }
  MutatedLocked();
  if (old_pages > 0) {
    ssd_->NandEraseBlocks(
        std::max<uint64_t>(1, old_pages / ssd_->config().pages_per_block));
  }
  if (survivor_bytes > 0) ssd_->NandWrite(survivor_bytes);
  ssd_->firmware()->Consume(kPutFwNs);
  if (tracer_ != nullptr) {
    tracer_->Complete(tr_dev_, "dev.reset", reset_start, env_->Now());
  }
  return Status::OK();
}

bool DevLsm::Empty() const {
  return memtable_.empty() && runs_.empty();
}

uint64_t DevLsm::NumLiveEntries() const {
  // Upper bound without merging: memtable plus run entries.
  uint64_t n = memtable_.size();
  for (const auto& r : runs_) n += r.entries.size();
  return n;
}

uint64_t DevLsm::LogicalBytes() const {
  uint64_t bytes = memtable_logical_;
  for (const auto& r : runs_) bytes += r.logical_bytes;
  return bytes;
}

// ---------------- Iterator ----------------

std::unique_ptr<DevLsm::Iterator> DevLsm::NewIterator() {
  // Opening the iterator pins the snapshot (one firmware command); batches
  // then stream from the pinned view so later PUTs/resets don't shift it.
  sim::SimLockGuard l(cmd_mu_);
  return std::make_unique<Iterator>(this, SnapshotLocked());
}

void DevLsm::Iterator::Seek(const Slice& user_key) {
  exhausted_ = false;
  buffer_.clear();
  pos_ = 0;
  FetchBatch(user_key, /*inclusive=*/true);
}

void DevLsm::Iterator::Next() {
  assert(Valid());
  pos_++;
  if (pos_ >= buffer_.size() && !exhausted_) {
    std::string last = buffer_.empty() ? std::string() : buffer_.back().key;
    FetchBatch(last, /*inclusive=*/false);
  }
}

void DevLsm::Iterator::FetchBatch(const Slice& start, bool inclusive) {
  buffer_.clear();
  pos_ = 0;
  DevLsm* dev = dev_;
  sim::SimLockGuard l(dev->cmd_mu_);
  const MergedView& view = *view_;  // pinned at open, not re-snapshotted
  auto it = std::lower_bound(
      view.begin(), view.end(), start.ToString(),
      [](const auto& a, const std::string& b) { return a.first < b; });
  if (!inclusive && it != view.end() && Slice(it->first) == start) ++it;

  uint64_t batch_bytes = 0;
  while (it != view.end() && batch_bytes < dev->options_.dma_chunk) {
    VersionedEntry e;
    e.key = it->first;
    e.value = it->second.value;
    e.tombstone = it->second.tombstone;
    batch_bytes += dev->EntryLogical(e.key, it->second);
    buffer_.push_back(std::move(e));
    ++it;
  }
  exhausted_ = (it == view.end());
  if (!buffer_.empty()) {
    // Uncached range scan: unlike the rollback's full sequential bulk scan,
    // an arbitrary-range batch gathers entries scattered across the runs, so
    // without a device read cache every entry costs a random NAND page read
    // — the Table V bottleneck the paper names ("without a read cache ...
    // its range query performance lags behind significantly").
    const uint64_t page = dev->ssd_->config().page_size;
    for (const VersionedEntry& e : buffer_) {
      // Extension: with a device read cache configured, resident pages skip
      // the NAND round trip (paper: the absence of this cache is the
      // Table V bottleneck).
      if (!dev->ReadCacheLookupOrFill(e.key, page)) {
        dev->ssd_->NandRead(page);
      }
    }
    dev->ssd_->firmware()->Consume(kScanFwNsPerEntry *
                                   static_cast<double>(buffer_.size()));
    dev->ssd_->PcieToHost(batch_bytes);
  }
}

}  // namespace kvaccel::devlsm
