// RateResource: a FIFO bandwidth server modeling a transfer medium — the PCIe
// link, a NAND channel, the device DRAM bus. A Transfer() blocks the calling
// simulated thread behind earlier transfers (deterministic FIFO order under
// the cooperative scheduler) for bytes/rate seconds and logs traffic into a
// per-second TimeSeries, which is how the reproduction "measures Intel PCM".
//
// State is mutated only between scheduler yield points, so no locking is
// required (see SimEnv header).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

#include "common/units.h"
#include "sim/sim_env.h"
#include "sim/timeseries.h"

namespace kvaccel::sim {

class RateResource {
 public:
  RateResource(SimEnv* env, std::string name, double bytes_per_sec)
      : env_(env), name_(std::move(name)), bytes_per_sec_(bytes_per_sec) {
    assert(bytes_per_sec > 0);
  }

  // Blocks the calling simulated thread until `bytes` have moved through the
  // resource. Returns the virtual completion time.
  Nanos Transfer(uint64_t bytes) {
    if (bytes == 0) return env_->Now();
    double start = std::max(static_cast<double>(env_->Now()), busy_until_ns_);
    double dur = TransferNanosExact(bytes, bytes_per_sec_);
    double end = start + dur;
    busy_until_ns_ = end;
    total_bytes_ += bytes;
    busy_total_ns_ += dur;
    traffic_.AddRange(static_cast<Nanos>(start), static_cast<Nanos>(end),
                      static_cast<double>(bytes));
    traffic_fine_.AddRange(static_cast<Nanos>(start), static_cast<Nanos>(end),
                           static_cast<double>(bytes));
    if (busy_callback_) {
      busy_callback_(static_cast<Nanos>(start), static_cast<Nanos>(end),
                     bytes);
    }
    env_->SleepUntil(static_cast<Nanos>(end + 0.999));
    return env_->Now();
  }

  // Accounts traffic and occupies the resource without blocking the caller
  // past `bytes`' completion — used for fire-and-forget DMA where the device
  // side tracks completion separately. Returns completion time.
  Nanos TransferAsync(uint64_t bytes) {
    if (bytes == 0) return env_->Now();
    double start = std::max(static_cast<double>(env_->Now()), busy_until_ns_);
    double end = start + TransferNanosExact(bytes, bytes_per_sec_);
    busy_until_ns_ = end;
    total_bytes_ += bytes;
    busy_total_ns_ += end - start;
    traffic_.AddRange(static_cast<Nanos>(start), static_cast<Nanos>(end),
                      static_cast<double>(bytes));
    traffic_fine_.AddRange(static_cast<Nanos>(start), static_cast<Nanos>(end),
                           static_cast<double>(bytes));
    if (busy_callback_) {
      busy_callback_(static_cast<Nanos>(start), static_cast<Nanos>(end),
                     bytes);
    }
    return static_cast<Nanos>(end + 0.999);
  }

  // Fine-grained traffic series (125 ms buckets): the scale-adjusted
  // equivalent of Intel PCM's 1 s sampling when experiments shrink by ~8x.
  const TimeSeries& traffic_fine() const { return traffic_fine_; }

  uint64_t total_bytes() const { return total_bytes_; }
  const std::string& name() const { return name_; }
  const TimeSeries& traffic() const { return traffic_; }
  TimeSeries& traffic() { return traffic_; }

  // Cumulative time the medium has spent transferring (the `*.busy_ns`
  // metric): transfers are FIFO and never overlap, so this is exact.
  Nanos busy_ns() const { return static_cast<Nanos>(busy_total_ns_); }

  // Observes every transfer's [start, end) busy window as it is scheduled.
  // The tracing layer hooks this to draw per-link busy bands; the resource
  // itself stays ignorant of obs.
  using BusyCallback = std::function<void(Nanos start, Nanos end,
                                          uint64_t bytes)>;
  void set_busy_callback(BusyCallback cb) { busy_callback_ = std::move(cb); }

 private:
  SimEnv* env_;
  std::string name_;
  double bytes_per_sec_;
  double busy_until_ns_ = 0;  // fractional ns to avoid rounding drift
  double busy_total_ns_ = 0;
  uint64_t total_bytes_ = 0;
  BusyCallback busy_callback_;
  TimeSeries traffic_;
  TimeSeries traffic_fine_{kNanosPerSec / 8};
};

}  // namespace kvaccel::sim
