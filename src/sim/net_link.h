// NetLink: the simulated host-to-host interconnect for the HA pair — a FIFO
// bandwidth server (same idiom as the PCIe link's RateResource) plus a fixed
// propagation latency and an adversarial fault surface (DESIGN.md §12):
//
//   net.send.transient    this message is dropped; the sender sees an IOError
//                         and may retry (counted in drops())
//   net.partition.sym     symmetric partition: the wire is cut in both
//                         directions — the message never charges the link and
//                         the sender sees an IOError (partition_drops())
//   net.delay             a seeded delay/jitter spike (100µs–1ms) is added on
//                         top of serialization + propagation (delay_spikes())
//   crash.net.send.mid    whole-pair power loss while the message is in
//                         flight: it charged the wire but was never applied
//                         on the receiver (latches the crash latch like every
//                         crash.* site)
//
// Three more net.* sites live in the replication protocol layer rather than on
// the wire, because only the sender's RPC loop knows about acks and record
// ordering (registered in KnownFaultSites() beside the sites above):
//
//   net.partition.ack     asymmetric partition, return direction: the record
//                         was applied on the receiver but the ack never came
//                         back (checked by ReplicatedKvaccelDB::SendAndApply)
//   net.dup               the record is delivered (and applied) twice
//   net.reorder           two queued async records swap places on the wire
//
// Delivery is synchronous from the simulation's point of view: Send() blocks
// the calling simulated thread for serialization (bytes / bandwidth, FIFO
// behind earlier messages) plus the propagation latency, then returns OK,
// after which the caller applies the message on the receiver. A Send that
// returns an error means the receiver never saw the message. While the crash
// latch is set every Send fails fast — the peer is down. When no net.* site
// is armed the timing is byte-identical to the pre-partition link.
//
// Single cooperative scheduler, state mutated only between yield points — no
// locking (see SimEnv header).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/fault.h"
#include "sim/resource.h"
#include "sim/sim_env.h"

namespace kvaccel::sim {

class NetLink {
 public:
  NetLink(SimEnv* env, std::string name, double bytes_per_sec, Nanos latency)
      : env_(env),
        latency_(latency),
        pipe_(env, std::move(name), bytes_per_sec),
        jitter_rng_(kJitterSeed) {}
  NetLink(const NetLink&) = delete;
  NetLink& operator=(const NetLink&) = delete;

  // Ships one `bytes`-sized message to the peer. Blocks for wire time +
  // latency (+ an armed delay spike). IOError when the message is dropped
  // (transient), the link is partitioned, or the pair crashed while it was
  // in flight.
  Status Send(uint64_t bytes) {
    if (SimCrashed(env_)) {
      return Status::IOError(pipe_.name() + ": peer down");
    }
    if (FaultAt(env_, "net.partition.sym")) {
      partition_drops_++;
      return Status::IOError(pipe_.name() + ": partitioned");
    }
    if (FaultAt(env_, "net.send.transient")) {
      drops_++;
      return Status::IOError(pipe_.name() + ": send dropped");
    }
    pipe_.Transfer(bytes);
    if (latency_ > 0) env_->SleepFor(latency_);
    if (FaultAt(env_, "net.delay")) {
      delay_spikes_++;
      env_->SleepFor(FromMicros(100) +
                     Nanos(jitter_rng_.Uniform(FromMicros(900))));
    }
    if (FaultAt(env_, "crash.net.send.mid")) {
      return Status::IOError(pipe_.name() + ": crashed in flight");
    }
    if (SimCrashed(env_)) {
      return Status::IOError(pipe_.name() + ": peer down");
    }
    messages_++;
    return Status::OK();
  }

  Nanos latency() const { return latency_; }
  uint64_t messages() const { return messages_; }
  uint64_t drops() const { return drops_; }
  uint64_t partition_drops() const { return partition_drops_; }
  uint64_t delay_spikes() const { return delay_spikes_; }
  const RateResource& pipe() const { return pipe_; }
  RateResource& pipe() { return pipe_; }

 private:
  static constexpr uint64_t kJitterSeed = 0x4E7D31A5;

  SimEnv* env_;
  Nanos latency_;
  RateResource pipe_;
  Random64 jitter_rng_;        // delay-spike widths (seeded, reproducible)
  uint64_t messages_ = 0;         // delivered
  uint64_t drops_ = 0;            // net.send.transient fires
  uint64_t partition_drops_ = 0;  // net.partition.sym fires
  uint64_t delay_spikes_ = 0;     // net.delay fires
};

}  // namespace kvaccel::sim
