// FairShareArbiter: a multi-client token-bucket bandwidth arbiter with
// start-time-fair-queuing (SFQ) ordering.
//
// N clients share one device: each shard of the sharded engine registers as
// a client and routes its deep-compaction I/O and redirect DMA reservations
// through Acquire(). Grants are ordered by per-client virtual start tags, so
// a compaction-heavy shard that has already consumed a lot of bandwidth
// queues behind a light shard's redirect even when it asked first — the
// fairness property a single busy-until token bucket cannot provide.
//
// Semantics: Acquire(client, bytes) blocks the calling simulated thread (in
// virtual time) until the reservation's tokens are available, then reserves
// `bytes` worth of serving time and returns immediately — callers overlap
// their actual device I/O with the reservation, exactly like a token-bucket
// rate limiter in front of real hardware. A small burst allowance keeps
// isolated requests latency-free.
//
// Determinism: the waiting set is ordered by (virtual tag, arrival ticket);
// SimMutex/SimCondVar hand-offs are FIFO, so the grant sequence is a pure
// function of the call sequence.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/sim_env.h"

namespace kvaccel::sim {

class FairShareArbiter {
 public:
  struct ClientStats {
    std::string name;
    uint64_t grants = 0;         // Acquire calls served
    uint64_t granted_bytes = 0;  // total bytes reserved
    uint64_t throttles = 0;      // grants that had to queue
    uint64_t throttle_ns = 0;    // total virtual ns spent queued
  };

  // `bytes_per_sec` (> 0) is the serving rate of the shared bucket;
  // `burst_bytes` of credit may accumulate while the bucket is idle.
  FairShareArbiter(SimEnv* env, std::string name, double bytes_per_sec,
                   uint64_t burst_bytes = 1ull << 20)
      : env_(env),
        name_(std::move(name)),
        bytes_per_sec_(bytes_per_sec),
        burst_ns_(static_cast<double>(burst_bytes) * 1e9 / bytes_per_sec) {
    assert(bytes_per_sec > 0);
  }

  FairShareArbiter(const FairShareArbiter&) = delete;
  FairShareArbiter& operator=(const FairShareArbiter&) = delete;

  // Registers a client slot; returns its id. Call before the simulation
  // schedule depends on the arbiter (registration order defines ids).
  int RegisterClient(std::string client_name) {
    SimLockGuard l(mu_);
    vtag_.push_back(0);
    stats_.push_back(ClientStats{});
    stats_.back().name = std::move(client_name);
    return static_cast<int>(stats_.size()) - 1;
  }

  // Blocks until `bytes` of bandwidth are granted to `client`; returns the
  // virtual ns the caller spent queued (0 when served immediately).
  Nanos Acquire(int client, uint64_t bytes) {
    if (bytes == 0) return 0;
    const Nanos arrival = env_->Now();
    mu_.Lock();
    // SFQ start tag: resume from this client's own consumption history, but
    // never behind the global virtual clock — an idle client re-enters at
    // the front instead of burning its idle period as credit-for-debt.
    double tag = std::max(vnow_, vtag_[client]);
    vtag_[client] = tag + static_cast<double>(bytes);
    const std::pair<double, uint64_t> key{tag, next_ticket_++};
    queue_.insert(key);
    for (;;) {
      const double now = static_cast<double>(env_->Now());
      const bool head = (*queue_.begin() == key);
      const double avail_at = busy_until_ns_ - burst_ns_;
      if (head && now >= avail_at) break;
      if (head) {
        cv_.WaitFor(mu_, static_cast<Nanos>(avail_at - now) + 1);
      } else {
        cv_.Wait(mu_);
      }
    }
    queue_.erase(key);
    vnow_ = std::max(vnow_, tag);
    const double now = static_cast<double>(env_->Now());
    busy_until_ns_ = std::max(busy_until_ns_, now - burst_ns_) +
                     static_cast<double>(bytes) * 1e9 / bytes_per_sec_;
    ClientStats& cs = stats_[client];
    cs.grants++;
    cs.granted_bytes += bytes;
    const Nanos waited = env_->Now() - arrival;
    if (waited > 0) {
      cs.throttles++;
      cs.throttle_ns += static_cast<uint64_t>(waited);
    }
    cv_.NotifyAll();
    mu_.Unlock();
    return waited;
  }

  const std::string& name() const { return name_; }
  // Reading stats mid-run is safe under the cooperative scheduler (plain
  // code never yields mid-update).
  const ClientStats& client_stats(int client) const { return stats_[client]; }

 private:
  SimEnv* env_;
  std::string name_;
  double bytes_per_sec_;
  double burst_ns_;

  SimMutex mu_;
  SimCondVar cv_;
  double vnow_ = 0;            // global virtual clock (bytes)
  double busy_until_ns_ = 0;   // bucket exhaustion instant
  uint64_t next_ticket_ = 0;   // arrival order tie-breaker
  std::set<std::pair<double, uint64_t>> queue_;  // (tag, ticket)
  std::vector<double> vtag_;   // per-client virtual finish tag (bytes)
  std::vector<ClientStats> stats_;
};

}  // namespace kvaccel::sim
