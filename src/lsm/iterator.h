// Iterator: the abstract cursor shared by memtables, SST blocks, merged
// views and the public DB scan API (paper §V-F builds its hybrid range query
// from two of these).
#pragma once

#include <memory>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace kvaccel::lsm {

class Iterator {
 public:
  Iterator() = default;
  virtual ~Iterator() = default;
  Iterator(const Iterator&) = delete;
  Iterator& operator=(const Iterator&) = delete;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  virtual void Seek(const Slice& target) = 0;
  virtual void Next() = 0;
  // Key/value of the current position; only valid while Valid().
  virtual Slice key() const = 0;
  virtual Slice value() const = 0;
  virtual Status status() const = 0;
};

// K-way forward merge over child iterators, smallest key first (per `cmp`).
// Ties are won by the earliest child, which callers exploit by ordering
// children newest-first. The valid children sit in a binary min-heap on
// (key, child index), so Next costs O(log n) comparisons, not n.
template <typename Comparator>
class MergingIterator : public Iterator {
 public:
  MergingIterator(Comparator cmp,
                  std::vector<std::unique_ptr<Iterator>> children)
      : cmp_(cmp), children_(std::move(children)) {}

  bool Valid() const override { return !heap_.empty(); }

  void SeekToFirst() override {
    for (auto& c : children_) c->SeekToFirst();
    BuildHeap();
  }

  void Seek(const Slice& target) override {
    for (auto& c : children_) c->Seek(target);
    BuildHeap();
  }

  void Next() override {
    Iterator* top = children_[heap_[0].child].get();
    top->Next();
    if (top->Valid()) {
      heap_[0].key = top->key();
    } else {
      heap_[0] = heap_.back();
      heap_.pop_back();
    }
    if (!heap_.empty()) SiftDown(0);
  }

  Slice key() const override { return heap_[0].key; }
  Slice value() const override { return children_[heap_[0].child]->value(); }

  Status status() const override {
    for (const auto& c : children_) {
      Status s = c->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  // A valid child and its current key, which stays valid until that child
  // moves.
  struct Entry {
    Slice key;
    size_t child;
  };

  bool Less(const Entry& a, const Entry& b) const {
    int r = cmp_.Compare(a.key, b.key);
    return r < 0 || (r == 0 && a.child < b.child);
  }

  void BuildHeap() {
    heap_.clear();
    for (size_t i = 0; i < children_.size(); i++) {
      if (children_[i]->Valid()) heap_.push_back({children_[i]->key(), i});
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    Entry moving = heap_[i];
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Less(heap_[child + 1], heap_[child])) child++;
      if (!Less(heap_[child], moving)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = moving;
  }

  Comparator cmp_;
  std::vector<std::unique_ptr<Iterator>> children_;
  std::vector<Entry> heap_;
};

}  // namespace kvaccel::lsm
