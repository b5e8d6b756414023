// HybridIterator (paper §V-F, Fig. 10): aggregates the Main-LSM iterator and
// the Dev-LSM device iterator into one range query over the whole database.
// An iterator comparator chooses, at each step, the iterator holding the
// smaller key; on equal keys the Metadata Manager arbitrates which side has
// the newest version. Dev-LSM tombstones hide the key from both sides.
//
// Snapshot discipline (DESIGN.md §9): all three inputs are pinned before
// construction, in this order — the device iterator's merged view, a copy of
// the Metadata Manager's key set for tie arbitration, then the main-LSM
// iterator's snapshot. Pinning can yield, and a rollback only moves pairs
// from the device into the Main-LSM, so a Main-LSM snapshot taken last holds
// every pair the other two no longer name. A rollback draining the device
// mid-scan therefore cannot drop keys or flip a tie to a side whose copy was
// already retired; the scan observes the authority map as of its creation.
//
// Exposes the standard lsm::Iterator surface: key() is the user key,
// value() the encoded Value payload. Each Seek and SeekToFirst is counted
// and timed in `stats` (the store's foreground view).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/metadata_manager.h"
#include "devlsm/dev_lsm.h"
#include "lsm/iterator.h"
#include "lsm/stats.h"
#include "sim/sim_env.h"

namespace kvaccel::core {

class HybridIterator : public lsm::Iterator {
 public:
  HybridIterator(std::unique_ptr<lsm::Iterator> main_iter,
                 std::unique_ptr<devlsm::DevLsm::Iterator> dev_iter,
                 KeySeqTable md_snapshot, sim::SimEnv* env,
                 lsm::DbStats* stats)
      : main_(std::move(main_iter)),
        dev_(std::move(dev_iter)),
        md_snapshot_(std::move(md_snapshot)),
        env_(env),
        stats_(stats) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    const Nanos start = env_->Now();
    main_->SeekToFirst();
    dev_->SeekToFirst();
    ChooseNext();
    stats_->AddSeek(env_->Now() - start);
  }

  void Seek(const Slice& target) override {
    const Nanos start = env_->Now();
    main_->Seek(target);
    dev_->Seek(target);
    ChooseNext();
    stats_->AddSeek(env_->Now() - start);
  }

  void Next() override;

  Slice key() const override { return Slice(current_key_); }
  Slice value() const override { return Slice(current_value_); }
  Status status() const override { return main_->status(); }

 private:
  // The "iterator comparator": evaluates both cursors and captures the next
  // live entry, advancing past duplicates and device tombstones.
  void ChooseNext();
  void AdvanceDevPast(const Slice& user_key);
  void AdvanceMainPast(const Slice& user_key);

  std::unique_ptr<lsm::Iterator> main_;
  std::unique_ptr<devlsm::DevLsm::Iterator> dev_;
  // Authority map as of iterator creation (see header comment).
  KeySeqTable md_snapshot_;
  sim::SimEnv* env_;
  lsm::DbStats* stats_;

  bool valid_ = false;
  std::string current_key_;
  std::string current_value_;
};

}  // namespace kvaccel::core
