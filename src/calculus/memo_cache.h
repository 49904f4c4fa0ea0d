// Sharded, mutex-striped verdict cache for the subsumption checker.
//
// The optimizer service runs many concurrent C ⊑_Σ D checks against one
// shared checker; a single memo map (and a single lock) would serialize
// them. Keys are striped over independently locked shards, so concurrent
// lookups of different pairs almost always take different locks, and a
// lock is held only for the hash-map operation itself — never across a
// completion run.
#ifndef OODB_CALCULUS_MEMO_CACHE_H_
#define OODB_CALCULUS_MEMO_CACHE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "base/sync.h"

namespace oodb::calculus {

// Aggregate counters, also surfaced per batch by the parallel classifier.
struct MemoCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

// Concurrent map from (C, D) pair keys to cached verdicts. Verdicts are
// pure functions of the key for a fixed Σ and term factory (both
// append-only for the checker's lifetime, ids stable), so any interleaving
// of Lookup/Insert is sound: a racing duplicate Insert writes the same
// value, and an eviction only costs recomputation.
//
// Capacity is enforced per shard: when a shard exceeds its slice of
// `capacity` the shard is cleared wholesale. Catalog-scan workloads cycle
// through a stable working set, so wholesale clearing stays simple without
// LRU bookkeeping on the hit path.
class ShardedMemoCache {
 public:
  static constexpr size_t kShardBits = 4;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;

  explicit ShardedMemoCache(size_t capacity = size_t{1} << 20)
      : shard_capacity_(capacity / kNumShards + 1) {}

  // The cached verdict, counted as a hit or a miss.
  std::optional<bool> Lookup(uint64_t key) const {
    const std::optional<bool> verdict = Peek(key);
    CountLookups(verdict.has_value() ? 1 : 0, verdict.has_value() ? 0 : 1);
    return verdict;
  }

  // The cached verdict, counted as nothing: a caller that acts on a run
  // of peeks books them with one CountLookups, and one that discards
  // them books none.
  std::optional<bool> Peek(uint64_t key) const {
    Shard& shard = shards_[ShardOf(key)];
    base::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    return it->second;
  }

  void CountLookups(uint64_t hits, uint64_t misses) const {
    if (hits > 0) hits_.fetch_add(hits, std::memory_order_relaxed);
    if (misses > 0) misses_.fetch_add(misses, std::memory_order_relaxed);
  }

  void Insert(uint64_t key, bool verdict) {
    Shard& shard = shards_[ShardOf(key)];
    base::MutexLock lock(&shard.mu);
    if (shard.map.size() >= shard_capacity_) {
      shard.evictions += shard.map.size();
      shard.map.clear();
    }
    if (shard.map.emplace(key, verdict).second) {
      insertions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  size_t size() const {
    size_t total = 0;
    for (Shard& shard : shards_) {
      base::MutexLock lock(&shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  MemoCacheStats Stats() const {
    MemoCacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.insertions = insertions_.load(std::memory_order_relaxed);
    for (Shard& shard : shards_) {
      base::MutexLock lock(&shard.mu);
      stats.evictions += shard.evictions;
      stats.entries += shard.map.size();
    }
    return stats;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      base::MutexLock lock(&shard.mu);
      shard.map.clear();
    }
  }

  // Shard routing, public so tests can pin the distribution and build
  // same-shard key sets. Fibonacci hash: pair keys are (c << 32 | d)
  // with small dense ids, so the raw low bits would put whole catalogs
  // in one shard.
  static size_t ShardOf(uint64_t key) {
    return (key * 0x9e3779b97f4a7c15ull) >> (64 - kShardBits);
  }

 private:
  // Padded to a cache line so neighboring shard locks don't false-share.
  struct alignas(64) Shard {
    base::Mutex mu;
    std::unordered_map<uint64_t, bool> map GUARDED_BY(mu);
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  size_t shard_capacity_;
  mutable Shard shards_[kNumShards];
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> insertions_{0};
};

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_MEMO_CACHE_H_
