// Seeded, deterministic fault injection for the simulation.
//
// A FaultInjector is registered on a SimEnv (SimEnv::set_fault_injector) and
// consulted at *named fault sites* sprinkled through the storage stack:
//
//   device    ssd.block.write.transient   BlockWrite fails with IOError
//             ssd.block.read.transient    BlockRead fails with IOError
//             ssd.block.flush.transient   BlockFlush fails with IOError
//             ssd.block.read.timeout      BlockRead stalls ~10ms then IOError
//   dev-lsm   devlsm.put.transient        PutCompound fails
//             devlsm.get.transient        Get fails
//   fs        simfs.read.bitflip          one bit of the returned payload flips
//             simfs.read.short            read returns a prefix of the request
//             simfs.powercut.torn         DropAllDirty also tears a suffix of
//                                         written-back-but-unflushed bytes
//   crash     crash.wal.post_append       leader commit: after WAL append,
//                                         before sync
//             crash.wal.post_sync         after WAL sync, before memtable apply
//             crash.flush.mid             mid-way through an L0 flush
//             crash.manifest.pre_sync     MANIFEST record appended, not synced
//             crash.manifest.post_sync    MANIFEST synced, version not applied
//             crash.compaction.mid        mid-way through a compaction
//             crash.subcompaction.mid     mid-way through one sub-range of a
//                                         range-partitioned compaction
//             crash.rollback.mid          mid-way through a rollback drain
//             crash.redirect.mid          redirected batch durable on the
//                                         device, metadata records not yet
//                                         flipped
//   net       net.send.transient          NetLink::Send drops the message
//             net.partition.sym           symmetric partition: the wire is cut
//                                         in both directions
//             net.partition.ack           asymmetric partition: the record is
//                                         applied on the peer but the ack is
//                                         lost on the way back
//             net.delay                   a seeded 100µs–1ms delay spike rides
//                                         on this message
//             net.dup                     the record is delivered (and
//                                         applied) twice
//             net.reorder                 two queued async records swap places
//                                         on the wire
//             crash.net.send.mid          pair-wide power loss while a
//                                         replication record is in flight
//                                         (sent, never applied)
//
// Sites whose name starts with "crash." model whole-machine power loss: when
// one fires the injector latches `crashed`, and while latched every device
// command in the stack fails (checked via SimCrashed()). The test harness
// then closes the DB (tolerating errors), calls SimFs::DropAllDirty(),
// ClearCrash()es the injector, and reopens to verify recovery.
//
// All randomness flows through one seeded Random64 and the simulation is
// single-threaded-at-a-time, so a given (seed, workload) pair replays the
// exact same fault schedule — no mutex needed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"

namespace kvaccel::sim {

class SimEnv;

// When a site should fire. All conditions are ANDed: the hit must land inside
// the virtual-time window (if any), satisfy nth_hit (if set) or the
// probability draw, and the site must not have exhausted max_fires.
struct FaultRule {
  // Fire with this probability per hit (evaluated when nth_hit == 0).
  double probability = 0.0;
  // If non-zero: fire deterministically on exactly the nth hit (1-based)
  // counted from when the rule was armed, instead of the probability draw.
  uint64_t nth_hit = 0;
  // Virtual-time window [start, end); 0/0 means "always".
  Nanos window_start = 0;
  Nanos window_end = 0;
  // Stop firing after this many fires; -1 = unlimited.
  int max_fires = -1;
};

class FaultInjector {
 public:
  FaultInjector(SimEnv* env, uint64_t seed) : env_(env), rng_(seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms (or replaces) the rule for `site`. Hit/fire counters reset.
  void Arm(const std::string& site, const FaultRule& rule);
  void Disarm(const std::string& site);
  // Disarms every site and clears the crash latch. Counters survive so a
  // harness can still report totals.
  void Clear();

  // Called at a fault site. Returns true if the fault fires this hit.
  // Firing a "crash."-prefixed site also latches crashed().
  bool ShouldFail(const std::string& site);

  // Whole-machine crash latch (see file comment).
  bool crashed() const { return crashed_; }
  void ClearCrash() { crashed_ = false; }

  uint64_t hits(const std::string& site) const;
  uint64_t fires(const std::string& site) const;
  uint64_t total_fires() const { return total_fires_; }

  // Deterministic draw in [0, n) from the injector's stream — used by sites
  // that need a payload choice (which bit to flip, where to tear).
  uint64_t Rand(uint64_t n) { return rng_.Uniform(n); }

 private:
  struct SiteState {
    FaultRule rule;
    bool armed = false;
    uint64_t hits = 0;   // since armed
    uint64_t fires = 0;  // since armed
  };

  SimEnv* env_;
  Random64 rng_;
  std::map<std::string, SiteState> sites_;
  bool crashed_ = false;
  uint64_t total_fires_ = 0;
};

// One row of the fault-site catalog: the exact site string checked in code
// plus a one-line description. KnownFaultSites() is the authoritative list
// of every named site sprinkled through the stack — tools print it for
// --list_fault_sites, and a docs-drift test asserts DESIGN.md cites only
// (and all of) the crash.* rows. Keep this table in sync with the header
// comment above when adding a site.
struct FaultSiteInfo {
  const char* site;
  const char* what;
};
const std::vector<FaultSiteInfo>& KnownFaultSites();

// Null-safe site check: false when `env` is null or has no injector armed.
bool FaultAt(SimEnv* env, const std::string& site);

// True while the whole-machine crash latch is set; device commands must fail.
bool SimCrashed(SimEnv* env);

}  // namespace kvaccel::sim
