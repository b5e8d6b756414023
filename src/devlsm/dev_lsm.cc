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
// Every run's filter (DESIGN.md §25). Its build and probes are a few bit
// operations per key and charge no time of their own: they sit inside the
// firmware costs above.
constexpr BloomFilter kRunFilter(kBloomBitsPerKey);
}  // namespace

DevLsm::DevLsm(ssd::HybridSsd* ssd, int nsid, const DevLsmOptions& options)
    : ssd_(ssd), nsid_(nsid), options_(options), env_(ssd->env()) {
  tracer_ = env_->tracer();
  if (tracer_ != nullptr) {
    tr_dev_ = tracer_->RegisterTrack("devlsm");
    tr_merge_ = tracer_->RegisterTrack("devlsm.merge");
    get_span_.Init(tracer_, tr_dev_, "dev.get", FromMicros(50));
  }
}

DevLsm::~DevLsm() {
  // The task's fiber points at this device. Off a simulated thread the
  // environment has already run every thread down.
  sim::SimEnv* env = sim::SimEnv::Current();
  if (env != nullptr && !env->shutting_down()) StopMergeTask();
  // The tracer outlives the DB world; close out coalesced busy windows so
  // the last burst isn't lost (see obs::CoalescingSpan lifetime rule).
  get_span_.Flush();
}

Value DevLsm::Run::value(size_t i) const {
  const Record& r = records[i];
  if ((r.flags & kTombstone) != 0) return Value();
  if ((r.flags & kInline) == 0) return Value::Synthetic(r.payload, r.value_size);
  return Value::Inline(values.substr(r.payload, r.value_size));
}

size_t DevLsm::Run::LowerBound(const Slice& k) const {
  size_t lo = 0;
  size_t hi = records.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key(mid).compare(k) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void DevLsm::Run::Add(const Slice& k, const Entry& e) {
  Record r;
  r.seq = e.seq;
  r.host_seq = e.host_seq;
  keys.append(k.data(), k.size());
  r.key_end = keys.size();
  if (e.tombstone) {
    r.flags = kTombstone;
  } else if (e.value.is_inline()) {
    r.flags = kInline;
    r.payload = values.size();
    r.value_size = static_cast<uint32_t>(e.value.inline_bytes().size());
    values += e.value.inline_bytes();
  } else {
    r.payload = e.value.seed();
    r.value_size = static_cast<uint32_t>(e.value.logical_size());
  }
  records.push_back(r);
  logical_bytes += logical(records.size() - 1);
}

void DevLsm::Run::AddFrom(const Run& src, size_t i) {
  Record r = src.records[i];
  const Slice k = src.key(i);
  keys.append(k.data(), k.size());
  r.key_end = keys.size();
  if ((r.flags & kInline) != 0) {
    r.payload = values.size();
    values.append(src.values, src.records[i].payload, r.value_size);
  }
  records.push_back(r);
  logical_bytes += logical(records.size() - 1);
}

void DevLsm::Run::BuildFilter() {
  std::vector<uint32_t> hashes;
  hashes.reserve(size());
  for (size_t i = 0; i < size(); i++) {
    hashes.push_back(BloomFilter::HashKey(key(i)));
  }
  filter.clear();
  kRunFilter.CreateFilter(hashes, &filter);
}

void DevLsm::InsertLocked(std::string key, Entry e) {
  auto [it, inserted] = memtable_.try_emplace(std::move(key));
  auto logical = [&] {
    return EntryLogical(it->first.size(), it->second.tombstone,
                        it->second.value.logical_size());
  };
  if (!inserted) memtable_logical_ -= logical();
  it->second = std::move(e);
  memtable_logical_ += logical();
}

void DevLsm::MergeNewest(std::span<const Run> runs, const Memtable* mem,
                         uint64_t after_seq, Run* out) {
  // Sources 0..n-1 are the runs, source n the memtable.
  const size_t n = runs.size();
  size_t records = mem != nullptr ? mem->size() : 0;
  size_t key_bytes = 0;
  size_t value_bytes = 0;
  for (const Run& r : runs) {
    records += r.size();
    key_bytes += r.keys.size();
    value_bytes += r.values.size();
  }
  out->records.reserve(records);
  out->keys.reserve(key_bytes);
  out->values.reserve(value_bytes);
  std::vector<size_t> pos(n, 0);
  Memtable::const_iterator mem_it =
      mem != nullptr ? mem->begin() : Memtable::const_iterator();
  struct Head {
    Slice key;
    uint64_t seq;
    size_t src;
  };
  auto head_of = [&](size_t src, Head* h) {
    if (src == n) {
      if (mem_it == mem->end()) return false;
      *h = {mem_it->first, mem_it->second.seq, src};
      return true;
    }
    const Run& r = runs[src];
    if (pos[src] == r.size()) return false;
    *h = {r.key(pos[src]), r.records[pos[src]].seq, src};
    return true;
  };
  // Max-heap order: the smallest key on top and, among equal keys, the
  // highest sequence.
  auto after = [](const Head& a, const Head& b) {
    int c = a.key.compare(b.key);
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
    while (!heap.empty() && heap.front().key == top.key) advance(pop().src);
    if (top.seq > after_seq) {
      if (top.src == n) {
        out->Add(mem_it->first, mem_it->second);
      } else {
        out->AddFrom(runs[top.src], pos[top.src]);
      }
    }
    advance(top.src);
  }
}

Status DevLsm::PutCompound(const std::vector<VersionedEntry>& entries) {
  if (entries.empty()) return Status::OK();
  sim::SimLockGuard l(cmd_mu_);
  // Backpressure: flushes outran the merge. Waiting before any sequence is
  // taken keeps a rollback's snapshot bound (LastSeq) from covering pairs
  // that are not in the device yet.
  auto backlogged = [&] {
    return merge_ != nullptr &&
           NewestClassRunsLocked() >
               2 * static_cast<size_t>(options_.l0_run_trigger);
  };
  if (backlogged()) {
    stats_.merge_waits++;
    while (backlogged()) merge_done_.Wait(cmd_mu_);
  }
  if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
  if (sim::FaultAt(env_, "devlsm.put.transient")) {
    return Status::IOError("injected: KV compound command failed");
  }
  uint64_t payload = 0;
  for (const VersionedEntry& e : entries) {
    if (!e.tombstone && e.value.logical_size() > UINT32_MAX) {
      return Status::InvalidArgument("KV value over 4 GiB");
    }
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
  const uint64_t page = ssd_->config().page_size;
  Nanos cmd_start = 0;
  bool found = false;
  bool tombstone = false;
  uint64_t pages = 0;  // NAND pages the lookup left to read
  {
    sim::SimLockGuard l(cmd_mu_);
    if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
    if (sim::FaultAt(env_, "devlsm.get.transient")) {
      return Status::IOError("injected: KV retrieve command failed");
    }
    stats_.gets++;
    cmd_start = tracer_ != nullptr ? env_->Now() : 0;
    ssd_->PcieToDevice(kCommandOverheadBytes + key.size());
    ssd_->firmware()->Consume(kGetFwNs);

    std::string k = key.ToString();
    auto mit = memtable_.find(k);
    if (mit != memtable_.end()) {
      found = true;  // device DRAM: no NAND read
      tombstone = mit->second.tombstone;
      if (!tombstone) *value = mit->second.value;
    } else {
      // Probe runs newest-first, skipping each run whose filter excludes
      // the key; a probe reads one NAND page unless a configured device
      // read cache holds it (paper config: no cache — the Table V
      // bottleneck).
      const uint32_t hash = BloomFilter::HashKey(key);
      for (auto rit = runs_.rbegin(); rit != runs_.rend() && !found; ++rit) {
        if (!kRunFilter.KeyMayMatch(hash, rit->filter)) {
          stats_.get_filter_skips++;
          continue;
        }
        const size_t i = rit->LowerBound(key);
        if (!ReadCacheLookupOrFill(k, page)) {
          stats_.get_nand_probes++;
          pages++;
        }
        if (i < rit->size() && rit->key(i) == key) {
          found = true;
          tombstone = rit->tombstone(i);
          if (!tombstone) *value = rit->value(i);
        }
      }
    }
  }
  // The lookup is the Get's linearization point. Its page reads and the
  // DMA to the host hold no command slot, so a redirected write issued
  // meanwhile is served rather than queued behind them.
  for (uint64_t i = 0; i < pages; i++) ssd_->NandRead(page);
  if (!found || tombstone) {
    if (tracer_ != nullptr) get_span_.Add(cmd_start, env_->Now(), key.size());
    return Status::NotFound("not in Dev-LSM");
  }
  ssd_->PcieToHost(value->logical_size());
  if (tracer_ != nullptr) {
    get_span_.Add(cmd_start, env_->Now(), value->logical_size());
  }
  return Status::OK();
}

Status DevLsm::FlushMemtableLocked() {
  if (memtable_.empty()) return Status::OK();
  Nanos flush_start = tracer_ != nullptr ? env_->Now() : 0;
  const uint64_t flushed_bytes = memtable_logical_;
  const uint64_t page = ssd_->config().page_size;
  const uint64_t pages = (flushed_bytes + page - 1) / page;

  Status s = ssd_->KvAllocPages(nsid_, pages);
  if (!s.ok() && options_.compaction_enabled && !runs_.empty()) {
    // Try to reclaim space by merging every run, then retry once.
    MergeAllRunsLocked();
    s = ssd_->KvAllocPages(nsid_, pages);
  }
  if (!s.ok()) return s;

  ssd_->firmware()->Consume(kFlushFwNsPerByte *
                            static_cast<double>(flushed_bytes));
  ssd_->NandWrite(flushed_bytes);
  // The memtable stays whole until the run lands: Empty() is read without
  // the command mutex while this thread sleeps on the device.
  Run run;
  run.pages = pages;
  run.records.reserve(memtable_.size());
  for (const auto& [k, e] : memtable_) run.Add(k, e);
  run.BuildFilter();
  memtable_.clear();
  runs_.push_back(std::move(run));
  memtable_logical_ = 0;
  MutatedLocked();
  stats_.flushes++;
  if (tracer_ != nullptr) {
    tracer_->Complete(tr_dev_, "dev.flush", flush_start, env_->Now(),
                      flushed_bytes);
  }

  // Size-tiered: a group of more than l0_run_trigger runs of one class
  // merges into one run of the next class, on the merge task.
  if (options_.compaction_enabled) WakeMergeLocked();
  return Status::OK();
}

DevLsm::Run DevLsm::MergedRunLocked(size_t first, size_t end,
                                    int out_class) const {
  // Newest wins; tombstones are retained (they may shadow Main-LSM data).
  Run out;
  out.size_class = out_class;
  MergeNewest(std::span<const Run>(runs_.data() + first, end - first),
              nullptr, 0, &out);
  out.BuildFilter();
  const uint64_t page = ssd_->config().page_size;
  out.pages = (out.logical_bytes + page - 1) / page;
  return out;
}

void DevLsm::MergeAllRunsLocked() {
  // The merge in flight reads runs this one replaces.
  if (merge_ != nullptr) merge_->discarded = true;
  if (runs_.size() < 2) return;
  Nanos compact_start = tracer_ != nullptr ? env_->Now() : 0;
  uint64_t in_bytes = 0;
  uint64_t in_pages = 0;
  for (const Run& r : runs_) {
    in_bytes += r.logical_bytes;
    in_pages += r.pages;
  }
  ssd_->NandRead(in_bytes);
  ssd_->firmware()->Consume(kCompactFwNsPerByte *
                            static_cast<double>(in_bytes));
  Run out = MergedRunLocked(0, runs_.size(), runs_.front().size_class);
  const uint64_t out_bytes = out.logical_bytes;
  const uint64_t out_pages = out.pages;

  // The output replaces its inputs before the device sleeps: readers that
  // skip the command mutex (Empty(), LogicalBytes()) see one or the other.
  // It never needs more pages than they free.
  runs_.clear();
  runs_.push_back(std::move(out));
  MutatedLocked();
  ssd_->KvFreePages(nsid_, in_pages);
  Status s = ssd_->KvAllocPages(nsid_, out_pages);
  assert(s.ok());
  (void)s;
  ssd_->NandWrite(out_bytes);
  ssd_->NandEraseBlocks(
      std::max<uint64_t>(1, in_pages / ssd_->config().pages_per_block));
  stats_.compactions++;
  stats_.compaction_bytes_read += in_bytes;
  stats_.compaction_bytes_written += out_bytes;
  if (tracer_ != nullptr) {
    tracer_->Complete(tr_dev_, "dev.compact", compact_start, env_->Now(),
                      in_bytes);
  }
}

// ---------------- Background merge (DESIGN.md §27) ----------------

bool DevLsm::FindGroupLocked(size_t limit, size_t* first, size_t* end) const {
  for (size_t e = runs_.size(); e > 0;) {
    size_t f = e;
    while (f > 0 && runs_[f - 1].size_class == runs_[e - 1].size_class) f--;
    if (e - f > limit) {
      *first = f;
      *end = e;
      return true;
    }
    e = f;
  }
  return false;
}

size_t DevLsm::NewestClassRunsLocked() const {
  size_t n = 0;
  while (n < runs_.size() && runs_[runs_.size() - 1 - n].size_class ==
                                 runs_.back().size_class) {
    n++;
  }
  return n;
}

void DevLsm::WakeMergeLocked() {
  size_t first = 0;
  size_t end = 0;
  const size_t trigger = static_cast<size_t>(options_.l0_run_trigger);
  if (merge_ != nullptr || !FindGroupLocked(trigger, &first, &end)) return;
  if (merge_task_ == nullptr) {
    // A daemon: the environment winds it down if nothing stops it.
    merge_task_ = env_->Spawn("devlsm-merge-" + std::to_string(nsid_),
                              [this] { MergeTask(); }, /*daemon=*/true);
  } else {
    merge_wake_.NotifyAll();
  }
}

void DevLsm::StopMergeTask() {
  if (merge_task_ == nullptr) return;
  {
    sim::SimLockGuard l(cmd_mu_);
    merge_stop_ = true;
    merge_wake_.NotifyAll();
  }
  env_->Join(merge_task_);
  merge_task_ = nullptr;
  merge_stop_ = false;
}

void DevLsm::MergeTask() {
  sim::SimLockGuard l(cmd_mu_);
  const size_t trigger = static_cast<size_t>(options_.l0_run_trigger);
  // The last installed merge, whose inputs' blocks are still to be erased.
  uint64_t erase_pages = 0;
  uint64_t merged_bytes = 0;
  Nanos merge_start = 0;
  while (true) {
    size_t first = 0;
    size_t end = 0;
    // The next group is picked before the queue is released after an
    // install, so a put waiting on backpressure waits for as long as the
    // backlog lasts. A powered-off device merges nothing: the next flush
    // after recovery wakes the task again.
    if (!merge_stop_ && !sim::SimCrashed(env_) &&
        FindGroupLocked(trigger, &first, &end)) {
      merge_ = std::make_unique<Merge>();
      merge_->first = first;
      merge_->count = end - first;
      for (size_t i = first; i < end; i++) {
        merge_->in_bytes += runs_[i].logical_bytes;
        merge_->in_pages += runs_[i].pages;
      }
      merge_->out = MergedRunLocked(first, end, runs_[first].size_class + 1);
    }
    if (erase_pages > 0) {
      // The inputs' blocks are garbage; erasing them needs no command slot.
      cmd_mu_.Unlock();
      ssd_->NandEraseBlocks(
          std::max<uint64_t>(1, erase_pages / ssd_->config().pages_per_block));
      if (tracer_ != nullptr) {
        tracer_->Complete(tr_merge_, "dev.compact", merge_start, env_->Now(),
                          merged_bytes);
      }
      cmd_mu_.Lock();
      erase_pages = 0;
    }
    if (merge_ == nullptr) {
      if (merge_stop_) return;
      merge_wake_.Wait(cmd_mu_);
      continue;
    }
    merge_start = env_->Now();
    merged_bytes = merge_->in_bytes;
    const uint64_t in_pages = merge_->in_pages;
    const bool installed = RunMergeLocked();
    merge_.reset();
    merge_done_.NotifyAll();
    if (installed) erase_pages = in_pages;
  }
}

bool DevLsm::RunMergeLocked() {
  Merge& m = *merge_;
  const uint64_t chunk = options_.dma_chunk;
  const uint64_t out_bytes = m.out.logical_bytes;
  auto abandoned = [&] { return m.discarded || sim::SimCrashed(env_); };
  cmd_mu_.Unlock();
  // Stream the inputs one dma_chunk at a time, each a NAND read and then
  // its firmware merge work, and write the output in dma_chunk writes. A
  // command issued meanwhile shares the NAND channels and waits at most one
  // step for the firmware core, never for the whole merge.
  for (uint64_t done = 0; done < m.in_bytes && !abandoned();) {
    const uint64_t step = std::min(chunk, m.in_bytes - done);
    ssd_->NandRead(step);
    ssd_->firmware()->Consume(kCompactFwNsPerByte * static_cast<double>(step));
    done += step;
  }
  for (uint64_t done = 0; done < out_bytes && !abandoned();) {
    const uint64_t step = std::min(chunk, out_bytes - done);
    ssd_->NandWrite(step);
    done += step;
  }
  cmd_mu_.Lock();
  if (abandoned()) {
    // A reset or the NoSpace reclaim replaced the inputs, or the power
    // failed: the half-written output is garbage, and no page was ever
    // charged to it.
    stats_.merge_discarded++;
    return false;
  }
  // Install in place of exactly the inputs: flushes only appended runs
  // after them, and anything else that touches runs_ discards the merge.
  // The output never needs more pages than its inputs free.
  assert(m.first + m.count <= runs_.size());
  const uint64_t out_pages = m.out.pages;
  runs_[m.first] = std::move(m.out);
  runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(m.first + 1),
              runs_.begin() + static_cast<ptrdiff_t>(m.first + m.count));
  MutatedLocked();
  ssd_->KvFreePages(nsid_, m.in_pages);
  Status s = ssd_->KvAllocPages(nsid_, out_pages);
  assert(s.ok());
  (void)s;
  stats_.compactions++;
  stats_.compaction_bytes_read += m.in_bytes;
  stats_.compaction_bytes_written += out_bytes;
  return true;
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

std::shared_ptr<const DevLsm::Run> DevLsm::SnapshotLocked() const {
  if (snapshot_cache_ != nullptr) return snapshot_cache_;
  auto view = std::make_shared<Run>();
  MergeNewest(runs_, &memtable_, 0, view.get());
  snapshot_cache_ = std::move(view);
  return snapshot_cache_;
}

Status DevLsm::BulkScan(
    const std::function<void(const VersionedEntry&)>& fn) {
  std::shared_ptr<const Run> view_snapshot;
  {
    // Snapshot under the command mutex, then release it: a rollback-sized
    // scan must not block concurrent redirected PUTs for its whole duration.
    sim::SimLockGuard l(cmd_mu_);
    stats_.bulk_scans++;
    view_snapshot = SnapshotLocked();
  }
  const Run& view = *view_snapshot;

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
      out.key = view.key(i).view();
      out.value = view.value(i);
      out.tombstone = view.tombstone(i);
      out.seq = view.records[i].host_seq;
      fn(out);
    }
    chunk_begin = end;
    chunk_bytes = 0;
  };

  for (size_t i = 0; i < view.size(); i++) {
    chunk_bytes += view.logical(i);
    if (chunk_bytes >= options_.dma_chunk) ship_chunk(i + 1);
  }
  ship_chunk(view.size());
  return Status::OK();
}

Status DevLsm::ResetUpTo(uint64_t up_to_seq) {
  sim::SimLockGuard l(cmd_mu_);
  stats_.resets++;
  // The merge in flight reads runs this replaces.
  if (merge_ != nullptr) merge_->discarded = true;
  Nanos reset_start = tracer_ != nullptr ? env_->Now() : 0;

  uint64_t old_pages = 0;
  for (const auto& r : runs_) old_pages += r.pages;

  // Survivors: entries written after the snapshot bound. A key's newest
  // run version survives exactly when any of its versions does, and the
  // runs are dropped below, so their survivors merge into one run.
  std::erase_if(memtable_,
                [&](const auto& kv) { return kv.second.seq <= up_to_seq; });
  memtable_logical_ = 0;
  for (const auto& [k, e] : memtable_) {
    memtable_logical_ +=
        EntryLogical(k.size(), e.tombstone, e.value.logical_size());
  }
  // The survivors were written after the snapshot, after a rollback
  // usually less than a flush's worth, so they start again at class 0.
  Run surviving_run;
  MergeNewest(runs_, nullptr, up_to_seq, &surviving_run);
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
    surviving_run.BuildFilter();
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
  for (const auto& r : runs_) n += r.size();
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
  batch_budget_ = 0;
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
  const Run& view = *view_;  // pinned at open, not re-snapshotted
  size_t i = view.LowerBound(start);
  if (!inclusive && i < view.size() && view.key(i) == start) ++i;

  const uint64_t page = dev->ssd_->config().page_size;
  batch_budget_ = std::min(dev->options_.dma_chunk,
                           batch_budget_ == 0 ? kFirstBatchPages * page
                                              : 2 * batch_budget_);
  uint64_t batch_bytes = 0;
  while (i < view.size() && batch_bytes < batch_budget_) {
    VersionedEntry e;
    e.key = view.key(i).ToString();
    e.value = view.value(i);
    e.tombstone = view.tombstone(i);
    batch_bytes += view.logical(i);
    buffer_.push_back(std::move(e));
    ++i;
  }
  exhausted_ = (i == view.size());
  if (buffer_.empty()) return;
  Nanos batch_start = dev->tracer_ != nullptr ? dev->env_->Now() : 0;
  // Uncached range scan: unlike the rollback's full sequential bulk scan,
  // an arbitrary-range batch gathers entries scattered across the runs, so
  // without a device read cache every entry costs a random NAND page read
  // — the Table V bottleneck the paper names ("without a read cache ...
  // its range query performance lags behind significantly").
  uint64_t pages = 0;
  for (const VersionedEntry& e : buffer_) {
    // Extension: with a device read cache configured, resident pages skip
    // the NAND round trip (paper: the absence of this cache is the
    // Table V bottleneck).
    if (!dev->ReadCacheLookupOrFill(e.key, page)) {
      dev->ssd_->NandRead(page);
      pages++;
    }
  }
  dev->ssd_->firmware()->Consume(kScanFwNsPerEntry *
                                 static_cast<double>(buffer_.size()));
  dev->ssd_->PcieToHost(batch_bytes);
  dev->stats_.iter_batches++;
  dev->stats_.iter_pages += pages;
  if (dev->tracer_ != nullptr) {
    dev->tracer_->Complete(dev->tr_dev_, "dev.iter_batch", batch_start,
                           dev->env_->Now(), batch_bytes);
  }
}

}  // namespace kvaccel::devlsm
