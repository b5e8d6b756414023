// HybridIterator (paper §V-F, Fig. 10): aggregates the Main-LSM iterator and
// the Dev-LSM device iterator into one range query over the whole database.
// An iterator comparator chooses, at each step, the iterator holding the
// smaller key; on equal keys the Metadata Manager arbitrates which side has
// the newest version. Dev-LSM tombstones hide the key from both sides.
//
// Snapshot discipline (DESIGN.md §9): all three inputs are pinned at
// construction — the main-LSM iterator's snapshot, the device iterator's
// merged view, and a copy of the Metadata Manager's key set for tie
// arbitration. A rollback draining the device mid-scan therefore cannot
// drop keys or flip a tie to a side whose copy was already retired; the
// scan observes the authority map as of its creation.
//
// Exposes the standard lsm::Iterator surface: key() is the user key,
// value() the encoded Value payload.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/metadata_manager.h"
#include "devlsm/dev_lsm.h"
#include "lsm/iterator.h"

namespace kvaccel::core {

class HybridIterator : public lsm::Iterator {
 public:
  HybridIterator(std::unique_ptr<lsm::Iterator> main_iter,
                 std::unique_ptr<devlsm::DevLsm::Iterator> dev_iter,
                 MetadataManager* md)
      : main_(std::move(main_iter)),
        dev_(std::move(dev_iter)),
        md_snapshot_(md->SnapshotKeySet()) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    main_->SeekToFirst();
    dev_->SeekToFirst();
    ChooseNext();
  }

  void Seek(const Slice& target) override {
    main_->Seek(target);
    dev_->Seek(target);
    ChooseNext();
  }

  void Next() override;

  Slice key() const override { return Slice(current_key_); }
  Slice value() const override { return Slice(current_value_); }
  Status status() const override { return main_->status(); }

  // Which side produced the current entry (observability/tests).
  bool current_from_dev() const { return current_from_dev_; }

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

  bool valid_ = false;
  bool current_from_dev_ = false;
  std::string current_key_;
  std::string current_value_;
};

}  // namespace kvaccel::core
