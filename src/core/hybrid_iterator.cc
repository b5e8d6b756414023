#include "core/hybrid_iterator.h"

namespace kvaccel::core {

void HybridIterator::AdvanceDevPast(const Slice& user_key) {
  while (dev_->Valid() && Slice(dev_->key()) == user_key) dev_->Next();
}

void HybridIterator::AdvanceMainPast(const Slice& user_key) {
  while (main_->Valid() && main_->key() == user_key) main_->Next();
}

void HybridIterator::ChooseNext() {
  valid_ = false;
  for (;;) {
    bool m = main_->Valid();
    bool d = dev_->Valid();
    if (!m && !d) return;

    // Pick the side with the smaller key; ties arbitrated by metadata.
    bool take_dev;
    if (m && d) {
      int cmp = Slice(dev_->key()).compare(main_->key());
      if (cmp < 0) {
        take_dev = true;
      } else if (cmp > 0) {
        take_dev = false;
      } else {
        // Same user key on both sides: the Metadata Manager snapshot taken
        // at iterator creation knows where the newest version lived then.
        take_dev = md_snapshot_.count(main_->key()) > 0;
      }
    } else {
      take_dev = d;
    }

    if (take_dev) {
      std::string key = dev_->key();
      bool tomb = dev_->tombstone();
      Value val = dev_->value();
      AdvanceDevPast(key);
      AdvanceMainPast(key);  // same key on the main side is stale
      // Hide it when deleted during redirection, or when the snapshot does
      // not name it: a host-path write superseded it (path 3-1), so Get
      // reads the Main-LSM, which holds the key only if it is live there.
      if (tomb || md_snapshot_.count(key) == 0) continue;
      current_key_ = std::move(key);
      current_value_.clear();
      val.EncodeTo(&current_value_);
      current_from_dev_ = true;
      valid_ = true;
      return;
    }

    std::string key = main_->key().ToString();
    current_value_.assign(main_->value().data(), main_->value().size());
    AdvanceMainPast(key);
    AdvanceDevPast(key);  // stale device copy, if any
    current_key_ = std::move(key);
    current_from_dev_ = false;
    valid_ = true;
    return;
  }
}

void HybridIterator::Next() {
  // ChooseNext already advanced both sides past the current key.
  ChooseNext();
}

}  // namespace kvaccel::core
