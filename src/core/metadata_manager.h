// Metadata Manager (paper §V-C): an in-memory hash table recording which
// user keys currently have their newest version in the Dev-LSM. It is the
// consistency keystone: membership decides the read path, and a normal-path
// write deletes the entry ("the latest key-value pair is now in Main-LSM").
//
// Exact membership (not a bloom filter) is required for read-your-writes
// across path switches. Costs are charged per Table VI. Volatile by design:
// a crash loses it, and recovery rebuilds from a full Dev-LSM scan (§VI-D).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/slice.h"
#include "common/units.h"
#include "common/value.h"
#include "core/config.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"

namespace kvaccel::core {

// Key -> host sequence map in one flat slot array: open addressing with
// linear probing and backward-shift deletion (no tombstones). The array is
// sized to its contents: it doubles past 3/4 full, halves below 1/8 full and
// is released when it empties, so copying it costs what it holds.
class KeySeqTable {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // 1 if `key` is present, else 0.
  size_t count(const Slice& key) const { return Find(key) != nullptr; }

  // The key's sequence, or nullptr when absent.
  const uint64_t* Find(const Slice& key) const {
    if (size_ == 0) return nullptr;
    const uint64_t h = HashOf(key);
    for (size_t i = h & mask(); slots_[i].hash != 0; i = (i + 1) & mask()) {
      if (slots_[i].hash == h && Slice(slots_[i].key) == key) {
        return &slots_[i].seq;
      }
    }
    return nullptr;
  }

  // Inserts `key` or overwrites its sequence.
  void Set(const Slice& key, uint64_t seq) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(std::max(kMinSlots, slots_.size() * 2));
    }
    const uint64_t h = HashOf(key);
    size_t i = h & mask();
    for (; slots_[i].hash != 0; i = (i + 1) & mask()) {
      if (slots_[i].hash == h && Slice(slots_[i].key) == key) {
        slots_[i].seq = seq;
        return;
      }
    }
    slots_[i].hash = h;
    slots_[i].key.assign(key.data(), key.size());
    slots_[i].seq = seq;
    size_++;
  }

  void Erase(const Slice& key) {
    if (size_ == 0) return;
    const uint64_t h = HashOf(key);
    size_t i = h & mask();
    for (;; i = (i + 1) & mask()) {
      if (slots_[i].hash == 0) return;
      if (slots_[i].hash == h && Slice(slots_[i].key) == key) break;
    }
    // Backward shift: pull later members of the probe run into the hole
    // unless their home slot lies cyclically after it.
    for (size_t j = (i + 1) & mask(); slots_[j].hash != 0;
         j = (j + 1) & mask()) {
      const size_t home = slots_[j].hash & mask();
      if (((j - home) & mask()) >= ((j - i) & mask())) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i].hash = 0;
    slots_[i].key.clear();
    if (--size_ == 0) {
      Clear();
    } else if (slots_.size() > kMinSlots && size_ * 8 < slots_.size()) {
      Rehash(slots_.size() / 2);
    }
  }

  void Clear() {
    slots_ = {};
    size_ = 0;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.hash != 0) fn(slot.key, slot.seq);
    }
  }

 private:
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint64_t hash = 0;  // 0 marks an empty slot
    std::string key;
    uint64_t seq = 0;
  };

  static uint64_t HashOf(const Slice& key) {
    uint64_t h = HashSlice64(key);
    return h != 0 ? h : 1;
  }
  size_t mask() const { return slots_.size() - 1; }

  void Rehash(size_t slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(slot_count);
    for (Slot& slot : old) {
      if (slot.hash == 0) continue;
      size_t i = slot.hash & mask();
      while (slots_[i].hash != 0) i = (i + 1) & mask();
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;  // power-of-two length, or empty
  size_t size_ = 0;
};

class MetadataManager {
 public:
  MetadataManager(sim::SimEnv* env, sim::CpuPool* host_cpu,
                  KvaccelStats* stats)
      : env_(env), cpu_(host_cpu), stats_(stats) {}

  // Records that `key`'s newest version lives in the Dev-LSM, written with
  // host sequence number `seq` (lets rollback recognize records superseded
  // by a re-redirection that happened during its scan).
  void Insert(const Slice& key, uint64_t seq) {
    Charge(kMdInsertNs);
    stats_->md_inserts++;
    keys_.Set(key, seq);
  }

  // Bulk insert for one redirected batch: same per-record hash-table cost as
  // Insert, but charged as a single CPU burst (one bookkeeping sleep instead
  // of N), mirroring how the batch rode a single device command. A record
  // that a newer Main-LSM version of its key overtook while its batch was
  // pending (BeginRedirect) is left out.
  void InsertBatch(const std::vector<std::pair<std::string, uint64_t>>& recs) {
    if (recs.empty()) return;
    Charge(kMdInsertNs * static_cast<double>(recs.size()));
    stats_->md_inserts += recs.size();
    for (const auto& [key, seq] : recs) {
      auto it = pending_.find(key);
      if (it == pending_.end() || it->second.main_seq < seq) {
        keys_.Set(key, seq);
      }
    }
  }

  // A redirected batch is pending from its sequence allocation until its
  // records are inserted or it falls back to the host path. A Main-LSM
  // version of one of its keys newer than the batch's (a direct write
  // that finished first, or a drained newer redirect) keeps that record
  // out: it would route reads to the older device version. Uncharged: the
  // table already holds these keys' slots in a real store.
  void BeginRedirect(const std::vector<VersionedEntry>& entries) {
    for (const VersionedEntry& e : entries) pending_[e.key].batches++;
  }
  void EndRedirect(const std::vector<VersionedEntry>& entries) {
    for (const VersionedEntry& e : entries) {
      auto it = pending_.find(e.key);
      if (--it->second.batches == 0) pending_.erase(it);
    }
  }
  // `key`'s version `seq` reached the Main-LSM. Uncharged.
  void NoteMainVersion(const Slice& key, uint64_t seq) {
    if (pending_.empty()) return;
    auto it = pending_.find(key.ToString());
    if (it != pending_.end()) {
      it->second.main_seq = std::max(it->second.main_seq, seq);
    }
  }

  // Membership test ("key check").
  bool Check(const Slice& key) {
    Charge(kMdCheckNs);
    stats_->md_checks++;
    return keys_.count(key) > 0;
  }

  // Sequence of the recorded device-side version; 0 when absent. Costs a
  // key check.
  uint64_t GetSeq(const Slice& key) {
    Charge(kMdCheckNs);
    stats_->md_checks++;
    const uint64_t* seq = keys_.Find(key);
    return seq == nullptr ? 0 : *seq;
  }

  // Removes the record (newest version is now in Main-LSM, or rolled back).
  void Delete(const Slice& key) {
    Charge(kMdDeleteNs);
    stats_->md_deletes++;
    keys_.Erase(key);
  }

  // Removes the record if its version is `seq` or older: a Main-LSM version
  // at `seq` superseded it (NoteMainVersion). A newer record stays. Costs a
  // key check, plus a delete when a record goes. The compare that decides
  // the erase runs after the last charge, so a newer record inserted while
  // this call sleeps is never the one erased.
  void DeleteIfNotNewer(const Slice& key, uint64_t seq) {
    auto superseded = [&] {
      const uint64_t* md_seq = keys_.Find(key);
      return md_seq != nullptr && *md_seq <= seq;
    };
    NoteMainVersion(key, seq);
    Charge(kMdCheckNs);
    stats_->md_checks++;
    if (!superseded()) return;
    Charge(kMdDeleteNs);
    stats_->md_deletes++;
    if (superseded()) keys_.Erase(key);
  }

  // One-shot copy of the table, taken when a snapshot iterator is built:
  // tie arbitration between the main-LSM and Dev-LSM cursors must use the
  // authority map as of iterator creation, not live state, or a rollback
  // completing mid-scan flips authority under the reader. Charged as one
  // check (a real store would publish a versioned epoch pointer, not copy).
  KeySeqTable SnapshotKeySet() {
    Charge(kMdCheckNs);
    stats_->md_checks++;
    return keys_;
  }

  // Uncharged dump of the table, in key order, for offline integrity
  // checking.
  std::vector<std::pair<std::string, uint64_t>> Entries() const {
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(keys_.size());
    keys_.ForEach([&](const std::string& key, uint64_t seq) {
      out.emplace_back(key, seq);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  // Crash simulation: drops the volatile table (paper §VI-D).
  void LoseAll() { keys_.Clear(); }

  size_t Size() const { return keys_.size(); }
  bool Empty() const { return keys_.empty(); }

 private:
  void Charge(double ns) {
    // Sub-microsecond bookkeeping: account CPU busy time and op latency.
    cpu_->Charge(ns);
    env_->SleepFor(static_cast<Nanos>(ns + 0.5));
  }

  struct Pending {
    uint32_t batches = 0;   // pending redirected batches holding the key
    uint64_t main_seq = 0;  // newest Main-LSM version noted meanwhile
  };

  sim::SimEnv* env_;
  sim::CpuPool* cpu_;
  KvaccelStats* stats_;
  KeySeqTable keys_;  // key -> host seq
  std::unordered_map<std::string, Pending> pending_;
};

}  // namespace kvaccel::core
