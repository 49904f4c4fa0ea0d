// Append-only, pointer-stable storage with lock-free indexed reads.
//
// SymbolTable and TermFactory serve two very different access patterns:
// interning (rare after warm-up, needs a lock around the dedup index) and
// id-to-payload lookup (the calculus hot path, millions of calls per
// completion). ChunkedVector lets the lookup side run without any lock:
// elements live in fixed-size chunks that never move, so a reference
// obtained for id i stays valid forever, and growing the container never
// relocates published elements the way std::vector does. ChunkedIdMap
// gives the same lock-free reads to a map keyed by such ids. Both allocate
// their directory of chunk pointers on the first write, so an empty
// container costs one null pointer.
#ifndef OODB_BASE_CHUNKED_H_
#define OODB_BASE_CHUNKED_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace oodb {

// Concurrency contract:
//   * push_back() calls must be serialized externally (the owner's intern
//     mutex). A push_back publishes the element with a release store of
//     size_, new chunks with release stores of the chunk pointer, and the
//     directory (on the first push_back) with a release store of dir_.
//   * operator[] / size() are lock-free. A reader may access any index it
//     learned through a happens-before edge with the publishing
//     push_back: thread start, or an acquire of the same mutex the writer
//     held. Indexes taken from a racy size() poll additionally synchronize
//     through the release/acquire pair on size_.
//   * Elements must not be mutated after publication (readers take plain
//     const references), except through atomic members of their own or
//     std::atomic_ref.
template <typename T, size_t kChunkBits = 10>
class ChunkedVector {
 public:
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = size_t{1} << 12;  // 4M elements

  ChunkedVector() = default;
  ~ChunkedVector() {
    std::atomic<T*>* dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr) return;
    for (size_t c = 0; c < kMaxChunks; ++c) {
      delete[] dir[c].load(std::memory_order_relaxed);
    }
    delete[] dir;
  }

  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;

  size_t size() const { return size_.load(std::memory_order_acquire); }

  const T& operator[](size_t i) const {
    assert(i < size());
    const std::atomic<T*>* dir = dir_.load(std::memory_order_acquire);
    const T* chunk = dir[i >> kChunkBits].load(std::memory_order_acquire);
    return chunk[i & (kChunkSize - 1)];
  }

  // Appends and returns the new element's index. External serialization
  // required; see the contract above.
  size_t push_back(T value) {
    const size_t i = size_.load(std::memory_order_relaxed);
    const size_t chunk_index = i >> kChunkBits;
    assert(chunk_index < kMaxChunks && "ChunkedVector capacity exhausted");
    std::atomic<T*>* dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr) {
      dir = new std::atomic<T*>[kMaxChunks]();
      dir_.store(dir, std::memory_order_release);
    }
    T* chunk = dir[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new T[kChunkSize]();
      dir[chunk_index].store(chunk, std::memory_order_release);
    }
    chunk[i & (kChunkSize - 1)] = std::move(value);
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

 private:
  // kMaxChunks chunk pointers, allocated by the first push_back.
  std::atomic<std::atomic<T*>*> dir_{nullptr};
  std::atomic<size_t> size_{0};
};

// Maps dense 32-bit ids (a factory's concept ids) to 32-bit values, with
// the same concurrency contract as ChunkedVector: Set() calls are
// serialized externally, Find() is lock-free. The id itself picks the
// slot, so a lookup is three dependent loads and no hash or probe. Pages of
// slots are allocated when an id in their range is first set, so memory
// follows the ids stored. Set publishes a value with a release store;
// a Find that reads it acquires everything written before the Set.
class ChunkedIdMap {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  static constexpr size_t kPageBits = 10;
  static constexpr size_t kPageSize = size_t{1} << kPageBits;
  // Covers every id a ChunkedVector with default chunks can hand out.
  static constexpr size_t kMaxPages = size_t{1} << 12;

  ChunkedIdMap() = default;
  ~ChunkedIdMap() {
    Page* dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr) return;
    for (size_t p = 0; p < kMaxPages; ++p) {
      delete[] dir[p].load(std::memory_order_relaxed);
    }
    delete[] dir;
  }

  ChunkedIdMap(const ChunkedIdMap&) = delete;
  ChunkedIdMap& operator=(const ChunkedIdMap&) = delete;

  // The value set for `id`, or kAbsent.
  uint32_t Find(uint32_t id) const {
    if ((id >> kPageBits) >= kMaxPages) return kAbsent;
    const Page* dir = dir_.load(std::memory_order_acquire);
    if (dir == nullptr) return kAbsent;
    const std::atomic<uint32_t>* page =
        dir[id >> kPageBits].load(std::memory_order_acquire);
    if (page == nullptr) return kAbsent;
    return page[id & (kPageSize - 1)].load(std::memory_order_acquire);
  }

  // Sets id → value (value != kAbsent). External serialization required.
  void Set(uint32_t id, uint32_t value) {
    assert((id >> kPageBits) < kMaxPages && "ChunkedIdMap id out of range");
    assert(value != kAbsent);
    Page* dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr) {
      dir = new Page[kMaxPages]();
      dir_.store(dir, std::memory_order_release);
    }
    Page& slot = dir[id >> kPageBits];
    std::atomic<uint32_t>* page = slot.load(std::memory_order_relaxed);
    if (page == nullptr) {
      page = new std::atomic<uint32_t>[kPageSize];
      for (size_t i = 0; i < kPageSize; ++i) {
        page[i].store(kAbsent, std::memory_order_relaxed);
      }
      slot.store(page, std::memory_order_release);
    }
    page[id & (kPageSize - 1)].store(value, std::memory_order_release);
  }

 private:
  using Page = std::atomic<std::atomic<uint32_t>*>;
  // kMaxPages page pointers, allocated by the first Set.
  std::atomic<Page*> dir_{nullptr};
};

}  // namespace oodb

#endif  // OODB_BASE_CHUNKED_H_
