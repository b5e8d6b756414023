#include "ssd/nand_flash.h"

#include <algorithm>

namespace kvaccel::ssd {

NandFlash::NandFlash(sim::SimEnv* env, const SsdConfig& config)
    : env_(env), config_(config) {
  double per_channel = config.nand_bytes_per_sec / config.channels;
  for (int i = 0; i < config.channels; i++) {
    channels_.push_back(std::make_unique<sim::RateResource>(
        env, "nand-ch" + std::to_string(i), per_channel));
  }
  if (obs::Tracer* tracer = env->tracer()) {
    channel_spans_.resize(channels_.size());
    for (size_t i = 0; i < channels_.size(); i++) {
      uint32_t track =
          tracer->RegisterTrack("ssd.nand-ch" + std::to_string(i));
      obs::CoalescingSpan* span = &channel_spans_[i];
      span->Init(tracer, track, "nand.busy", FromMicros(50));
      channels_[i]->set_busy_callback(
          [span](Nanos start, Nanos end, uint64_t bytes) {
            span->Add(start, end, bytes);
          });
      tracer->AddFlusher([span] { span->Flush(); });
    }
  }
}

double NandFlash::total_bytes_per_sec() const {
  return config_.nand_bytes_per_sec;
}

Nanos NandFlash::StripedTransfer(uint64_t bytes, Nanos fixed_latency) {
  if (bytes == 0) return env_->Now();
  // Stripe page-sized chunks round-robin over the channels, dealing from
  // next_channel_; only the last chunk may be partial. For transfers smaller
  // than one page the single owning channel carries it all.
  const uint64_t stripe = config_.page_size;
  const size_t n = channels_.size();
  const size_t start = next_channel_;
  const uint64_t chunks = (bytes + stripe - 1) / stripe;
  const uint64_t short_by = chunks * stripe - bytes;  // missing from the last
  const size_t last = (start + (chunks - 1) % n) % n;
  next_channel_ = (start + chunks % n) % n;
  Nanos done = env_->Now();
  for (size_t i = 0; i < n; i++) {
    const size_t deal = (i + n - start) % n;  // i's place in the deal order
    const uint64_t count = chunks / n + (deal < chunks % n ? 1 : 0);
    if (count == 0) continue;
    const uint64_t share = count * stripe - (i == last ? short_by : 0);
    done = std::max(done, channels_[i]->TransferAsync(share));
  }
  env_->SleepUntil(done + fixed_latency);
  return env_->Now();
}

Nanos NandFlash::Read(uint64_t bytes) {
  bytes_read_ += bytes;
  return StripedTransfer(bytes, config_.read_latency);
}

Nanos NandFlash::Write(uint64_t bytes) {
  bytes_written_ += bytes;
  return StripedTransfer(bytes, config_.program_latency);
}

Nanos NandFlash::Erase(uint64_t blocks) {
  if (blocks == 0) return env_->Now();
  blocks_erased_ += blocks;
  // Erases parallelize across channels; model the aggregate delay.
  uint64_t per_channel =
      (blocks + channels_.size() - 1) / channels_.size();
  env_->SleepFor(config_.erase_latency * per_channel);
  return env_->Now();
}

}  // namespace kvaccel::ssd
