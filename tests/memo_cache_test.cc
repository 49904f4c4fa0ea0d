// Direct unit coverage of the sharded verdict cache: shard routing,
// hit/miss/insertion/eviction counters, and the wholesale per-shard
// eviction policy. (Until now the cache was only exercised indirectly
// through checker and classifier tests.)
#include "calculus/memo_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace oodb::calculus {
namespace {

// Keys shaped like the checker's: (c << 32 | d) with small dense ids.
uint64_t PairKey(uint32_t c, uint32_t d) {
  return (static_cast<uint64_t>(c) << 32) | d;
}

// The first `n` keys that route to `shard`.
std::vector<uint64_t> KeysInShard(size_t shard, size_t n) {
  std::vector<uint64_t> keys;
  for (uint32_t c = 0; keys.size() < n; ++c) {
    for (uint32_t d = 0; d < 1024 && keys.size() < n; ++d) {
      uint64_t key = PairKey(c, d);
      if (ShardedMemoCache::ShardOf(key) == shard) keys.push_back(key);
    }
  }
  return keys;
}

TEST(MemoCache, ShardRoutingCoversAllShardsOnDensePairKeys) {
  // The whole point of the Fibonacci mix: dense catalog ids must spread
  // over every shard instead of piling into shard 0 (raw low bits of
  // (c << 32 | d) would be just d).
  std::set<size_t> shards;
  for (uint32_t c = 0; c < 64; ++c) {
    for (uint32_t d = 0; d < 64; ++d) {
      size_t shard = ShardedMemoCache::ShardOf(PairKey(c, d));
      ASSERT_LT(shard, ShardedMemoCache::kNumShards);
      shards.insert(shard);
    }
  }
  EXPECT_EQ(shards.size(), ShardedMemoCache::kNumShards);
}

TEST(MemoCache, ShardRoutingIsDeterministic) {
  for (uint64_t key : {uint64_t{0}, PairKey(1, 2), PairKey(7, 7),
                       ~uint64_t{0}}) {
    EXPECT_EQ(ShardedMemoCache::ShardOf(key),
              ShardedMemoCache::ShardOf(key));
  }
}

TEST(MemoCache, HitMissAndInsertionCounters) {
  ShardedMemoCache cache;
  EXPECT_EQ(cache.Lookup(PairKey(1, 2)), std::nullopt);
  cache.Insert(PairKey(1, 2), true);
  cache.Insert(PairKey(3, 4), false);
  auto hit = cache.Lookup(PairKey(1, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  hit = cache.Lookup(PairKey(3, 4));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(*hit);
  EXPECT_EQ(cache.Lookup(PairKey(9, 9)), std::nullopt);

  MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MemoCache, DuplicateInsertCountsOnce) {
  ShardedMemoCache cache;
  cache.Insert(PairKey(5, 6), true);
  cache.Insert(PairKey(5, 6), true);  // racing duplicate: same verdict
  EXPECT_EQ(cache.Stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCache, CapacityEvictsWholesalePerShard) {
  // capacity 16 → shard_capacity = 16/16 + 1 = 2 entries per shard.
  ShardedMemoCache cache(/*capacity=*/16);
  const size_t shard = ShardedMemoCache::ShardOf(PairKey(0, 0));
  std::vector<uint64_t> keys = KeysInShard(shard, 3);

  cache.Insert(keys[0], true);
  cache.Insert(keys[1], true);
  EXPECT_EQ(cache.Stats().evictions, 0u);

  // The third insert finds the shard at capacity: the policy clears the
  // whole shard first, so afterwards ONLY the newest key survives.
  cache.Insert(keys[2], false);
  MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.Lookup(keys[0]), std::nullopt);
  EXPECT_EQ(cache.Lookup(keys[1]), std::nullopt);
  auto survivor = cache.Lookup(keys[2]);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_FALSE(*survivor);
}

TEST(MemoCache, EvictionInOneShardLeavesOthersIntact) {
  ShardedMemoCache cache(/*capacity=*/16);
  const size_t victim = ShardedMemoCache::ShardOf(PairKey(0, 0));
  // Park one entry in a different shard.
  uint64_t other_key = 0;
  for (uint32_t d = 1;; ++d) {
    if (ShardedMemoCache::ShardOf(PairKey(0, d)) != victim) {
      other_key = PairKey(0, d);
      break;
    }
  }
  cache.Insert(other_key, true);

  std::vector<uint64_t> keys = KeysInShard(victim, 3);
  for (uint64_t key : keys) cache.Insert(key, true);  // overflows `victim`
  EXPECT_GT(cache.Stats().evictions, 0u);
  EXPECT_TRUE(cache.Lookup(other_key).has_value());
}

TEST(MemoCache, ClearEmptiesEveryShardWithoutCountingEvictions) {
  ShardedMemoCache cache;
  for (uint32_t i = 0; i < 100; ++i) cache.Insert(PairKey(i, i + 1), true);
  EXPECT_EQ(cache.size(), 100u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().evictions, 0u);  // Clear is a reset, not pressure
}

TEST(MemoCache, ConcurrentMixedUseKeepsCountersConsistent) {
  // Four threads look up overlapping keys and insert on a miss, and the
  // churn overflows shards and clears them under the other threads. Whether
  // a churn key is still cached when another thread looks it up depends on
  // the interleaving (threads released together find almost none), so one
  // shard is kept out of the churn: its keys are cached before the threads
  // start, the shard never reaches capacity, and each lookup of them hits.
  ShardedMemoCache cache(size_t{1} << 12);
  const size_t kThreads = 4, kPerThread = 2000;
  const size_t pinned_shard = ShardedMemoCache::ShardOf(PairKey(0, 0));
  const std::vector<uint64_t> pinned = KeysInShard(pinned_shard, 32);
  // Verdict is a pure function of the key, as in the checker.
  auto verdict_of = [](uint64_t key) { return (key % 3) == 0; };
  for (uint64_t key : pinned) cache.Insert(key, verdict_of(key));

  std::vector<size_t> pinned_lookups(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        uint64_t key = PairKey(static_cast<uint32_t>(i % 97),
                               static_cast<uint32_t>((i * 31 + t) % 89));
        if (ShardedMemoCache::ShardOf(key) == pinned_shard) {
          key = pinned[i % pinned.size()];
          ++pinned_lookups[t];
        }
        auto cached = cache.Lookup(key);
        if (cached.has_value()) {
          EXPECT_EQ(*cached, verdict_of(key));
        } else {
          cache.Insert(key, verdict_of(key));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t pinned_total = 0;
  for (size_t n : pinned_lookups) pinned_total += n;
  MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kPerThread);
  EXPECT_GT(pinned_total, 0u);
  EXPECT_GE(stats.hits, pinned_total);
  EXPECT_GT(stats.hits, 0u);
  // Each of the other 15 shards gets over 370 distinct churn keys against
  // a capacity of 257, so the clears did run alongside the lookups.
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 97u * 89u);
}

}  // namespace
}  // namespace oodb::calculus
