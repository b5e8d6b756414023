#include "ndp/ndp_device.h"

#include "obs/trace.h"
#include "sim/fault.h"

namespace kvaccel::ndp {

namespace {
// Dedicated NDP merge cores per device.
constexpr int kNdpCores = 2;
// Relative speed of a dedicated NDP core. Unlike the control-path firmware
// core (SsdConfig::firmware_speed, 0.25), the merge engines run at host
// clock: the COMPACT path is what the silicon exists for.
constexpr double kSpeedFactor = 1.0;
// Firmware merge loop cost, nominal ns per logical byte (the host loop's
// cost sits in lsm/db_impl.cc).
constexpr double kMergeNsPerByte = 1.2;
// Device-side CRC verification of every block read and written.
constexpr double kVerifyNsPerByte = 0.3;
// COMPACT descriptor / result capsule sizes shipped over PCIe.
constexpr uint64_t kCommandBytesBase = 512;
constexpr uint64_t kCommandBytesPerFile = 64;
constexpr uint64_t kResultBytesBase = 256;
constexpr uint64_t kResultBytesPerFile = 64;
}  // namespace

NdpDevice::NdpDevice(ssd::HybridSsd* ssd)
    : ssd_(ssd), env_(ssd->env()),
      pool_(env_, "ssd-ndp", kNdpCores, kSpeedFactor) {
  if (env_->tracer() != nullptr) {
    tr_track_ = env_->tracer()->RegisterTrack("ssd.ndp");
    traced_ = true;
  }
}

Status NdpDevice::BeginCompact(const CompactDescriptor& d, uint64_t* cmd_id) {
  if (sim::SimCrashed(env_)) return Status::IOError("simulated crash");
  if (sim::FaultAt(env_, "ndp.compact.transient")) {
    stats_.rejected++;
    return Status::IOError("ndp: COMPACT rejected");
  }
  uint64_t bytes =
      kCommandBytesBase +
      kCommandBytesPerFile * static_cast<uint64_t>(std::max(0, d.input_files));
  ssd_->PcieToDevice(bytes);
  stats_.commands++;
  stats_.command_bytes += bytes;
  *cmd_id = next_cmd_id_++;
  inflight_[*cmd_id] = env_->Now();
  return Status::OK();
}

void NdpDevice::MergeCpu(uint64_t bytes) {
  stats_.merge_bytes += bytes;
  cpu()->Consume((kMergeNsPerByte + kVerifyNsPerByte) *
                 static_cast<double>(bytes));
}

Status NdpDevice::FinishCompact(uint64_t cmd_id, bool ok,
                                uint64_t output_files, uint64_t output_bytes) {
  (void)output_bytes;
  Nanos start = 0;
  auto it = inflight_.find(cmd_id);
  if (it != inflight_.end()) {
    start = it->second;
    inflight_.erase(it);
  }
  if (!ok) {
    stats_.jobs_failed++;
    return Status::OK();
  }
  // Result capsule in flight: a power cut here loses the metadata while the
  // output SSTs already sit on NAND — recovery must reap them as strays.
  if (sim::FaultAt(env_, "crash.ndp.result.pre")) {
    stats_.jobs_failed++;
    return Status::IOError("simulated crash");
  }
  uint64_t bytes = kResultBytesBase + kResultBytesPerFile * output_files;
  ssd_->PcieToHost(bytes);
  stats_.jobs_completed++;
  stats_.result_bytes += bytes;
  if (traced_) {
    env_->tracer()->Complete(tr_track_, "ndp.compact", start, env_->Now(),
                             stats_.merge_bytes);
  }
  return Status::OK();
}

}  // namespace kvaccel::ndp
