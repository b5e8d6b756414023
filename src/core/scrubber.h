// Online scrubber (DESIGN.md §9): a low-priority virtual-time actor that
// incrementally re-reads SST blocks and verifies checksums and metadata
// cross-links (key order, recorded range, entry count, max sequence) during
// idle device bandwidth. Latent media corruption — the simfs.read.bitflip
// class — is otherwise only found when a foreground read happens to touch
// the damaged block; the scrubber bounds that detection latency.
//
// Discipline:
//  - wakes every ScrubOptions::period and verifies at most ONE file;
//  - skips the wake-up entirely while the Detector reports stall pressure
//    (foreground writes own the bandwidth during a stall);
//  - a file failing verification `escalate_after` consecutive times is
//    escalated through the Detector's device-health circuit breaker, the
//    same path a dead Dev-LSM takes (persistent media trouble should stop
//    redirection too, not just log).
#pragma once

#include <cstdint>
#include <map>

#include "core/config.h"
#include "core/detector.h"
#include "lsm/db.h"
#include "sim/periodic.h"
#include "sim/sim_env.h"

namespace kvaccel::core {

struct ScrubStats {
  uint64_t files_scanned = 0;   // files fully verified clean
  uint64_t bytes_scanned = 0;   // logical bytes re-read
  uint64_t passes = 0;          // full sweeps over the live file set
  uint64_t corruptions = 0;     // failed verifications (incl. repeats)
  uint64_t escalations = 0;     // circuit-breaker reports to the Detector
  uint64_t skipped_busy = 0;    // wake-ups skipped under stall pressure
  uint64_t deferred_for_resync = 0;  // wake-ups skipped during resync
};

class Scrubber {
 public:
  Scrubber(lsm::DB* main_db, Detector* detector, sim::SimEnv* env,
           const KvaccelOptions& options)
      : db_(main_db), detector_(detector), env_(env), options_(options) {}

  void Start();
  void Stop() { actor_.Stop(); }

  // One scrub step (at most one file), callable directly from tests without
  // the background thread. Returns the verification status of the file it
  // examined (OK when idle-skipped or nothing to scrub).
  Status StepOnce();

  const ScrubStats& stats() const { return stats_; }

  // Reconciliation catch-up (DESIGN.md §12): while a deposed peer is being
  // resynced from this node, scrub wake-ups are deferred so the resync reads
  // don't compete with serving traffic for device bandwidth. Cooperative
  // scheduler: a plain flag flipped between yield points is safe.
  void SetResyncDeferred(bool deferred) { resync_deferred_ = deferred; }
  bool resync_deferred() const { return resync_deferred_; }

 private:
  lsm::DB* db_;
  Detector* detector_;
  sim::SimEnv* env_;
  const KvaccelOptions& options_;

  sim::PeriodicActor actor_;
  bool resync_deferred_ = false;

  // Round-robin position: smallest live file number > cursor_ goes next.
  uint64_t cursor_ = 0;
  // Consecutive verification failures per file (cleared on success or when
  // the file leaves the version).
  std::map<uint64_t, int> fail_streak_;
  ScrubStats stats_;
};

}  // namespace kvaccel::core
