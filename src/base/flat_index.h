// Flat, exactly keyed tables for per-run scratch state that a pooled
// owner clears and refills many times.
//
// FlatIndex maps a 64-bit key to a 32-bit value by open addressing. The
// key is stored and compared in full, so two distinct keys never share
// an entry; the hash only picks the probe start. Each slot records the
// generation that wrote it, so Clear() is O(1) and keeps the slot array
// for the next fill.
//
// ListPool hands out growable lists by dense id. Clear() empties the
// lists in use but keeps their buffers, and a reference to one list
// stays valid while other lists are created or grow.
#ifndef OODB_BASE_FLAT_INDEX_H_
#define OODB_BASE_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace oodb {

// Packs two 32-bit ids into one exact 64-bit key.
inline constexpr uint64_t PackKey(uint32_t hi, uint32_t lo) {
  return (uint64_t{hi} << 32) | lo;
}

class FlatIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  // The value stored under `key`, or kAbsent.
  uint32_t Find(uint64_t key) const {
    if (size_ == 0) return kAbsent;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.generation != generation_) return kAbsent;
      if (slot.key == key) return slot.value;
    }
  }

  // Stores key → value unless `key` is present. Returns the value now
  // stored under `key` and whether it was inserted.
  std::pair<uint32_t, bool> Insert(uint64_t key, uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot = Slot{key, value, generation_};
        ++size_;
        return {value, true};
      }
      if (slot.key == key) return {slot.value, false};
    }
  }

  // Forgets every entry; keeps the slot array.
  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {
      // Wrapped: stale slots could look live again, so wipe them.
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = 0;
    uint32_t generation = 0;  // live iff equal to generation_
  };

  // MurmurHash3's 64-bit finalizer: spreads small dense ids over the
  // whole table.
  static size_t Mix(uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<size_t>(key);
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    const uint32_t live = generation_;
    generation_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.generation == live) Insert(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  uint32_t generation_ = 1;
  size_t size_ = 0;
};

template <typename T>
class ListPool {
 public:
  // List `id`, or an empty list if `id` was never handed out.
  const std::vector<T>& operator[](size_t id) const {
    return id < live_ ? lists_[id] : empty_;
  }

  // List `id`, handing out every id up to it first.
  std::vector<T>& At(size_t id) {
    while (live_ <= id) New();
    return lists_[id];
  }

  // The number of ids handed out; the next New() returns it.
  size_t size() const { return live_; }

  // Hands out the next id, with an empty list.
  uint32_t New() {
    if (live_ == lists_.size()) lists_.emplace_back();
    return static_cast<uint32_t>(live_++);
  }

  // Empties every list handed out and takes the ids back.
  void Clear() {
    for (size_t i = 0; i < live_; ++i) lists_[i].clear();
    live_ = 0;
  }

 private:
  // A deque, so growing the pool never moves a list a caller iterates.
  std::deque<std::vector<T>> lists_;
  size_t live_ = 0;
  std::vector<T> empty_;
};

}  // namespace oodb

#endif  // OODB_BASE_FLAT_INDEX_H_
