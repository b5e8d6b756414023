#include "core/scrubber.h"

#include <algorithm>
#include <vector>

namespace kvaccel::core {

void Scrubber::Start() {
  actor_.Start(env_, "kvaccel-scrub", options_.scrub.period,
               [this] { StepOnce(); });
}

Status Scrubber::StepOnce() {
  if (resync_deferred_) {
    stats_.deferred_for_resync++;
    return Status::OK();
  }
  if (detector_ != nullptr && detector_->stall_detected()) {
    stats_.skipped_busy++;
    return Status::OK();
  }
  std::vector<lsm::SstFileInfo> files = db_->ListSstFiles();
  if (files.empty()) return Status::OK();

  // Round-robin by file number: the smallest live number above the cursor;
  // wrapping counts a completed pass over the whole file set.
  const lsm::SstFileInfo* pick = nullptr;
  for (const auto& f : files) {
    if (f.number > cursor_ && (pick == nullptr || f.number < pick->number)) {
      pick = &f;
    }
  }
  if (pick == nullptr) {
    cursor_ = 0;
    stats_.passes++;
    for (const auto& f : files) {
      if (pick == nullptr || f.number < pick->number) pick = &f;
    }
  }
  cursor_ = pick->number;

  // Drop streaks for files no longer live (compacted away between steps).
  for (auto it = fail_streak_.begin(); it != fail_streak_.end();) {
    uint64_t number = it->first;
    bool live = std::any_of(files.begin(), files.end(), [&](const auto& f) {
      return f.number == number;
    });
    it = live ? std::next(it) : fail_streak_.erase(it);
  }

  uint64_t bytes = 0;
  Status s = db_->VerifySstFile(pick->number, &bytes);
  stats_.bytes_scanned += bytes;
  if (s.ok()) {
    stats_.files_scanned++;
    fail_streak_.erase(pick->number);
  } else if (s.IsNotFound()) {
    // Compacted away since listing: benign, not a corruption.
    s = Status::OK();
  } else {
    stats_.corruptions++;
    int streak = ++fail_streak_[pick->number];
    if (streak >= options_.scrub.escalate_after && detector_ != nullptr) {
      stats_.escalations++;
      detector_->ReportDeviceFailure(env_->Now());
      fail_streak_[pick->number] = 0;  // re-arm; don't re-trip every step
    }
  }
  return s;
}

}  // namespace kvaccel::core
