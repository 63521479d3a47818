/// \file cache.h
/// \brief Sharded, thread-safe LRU cache keyed by 64-bit hashes.
///
/// One shared implementation backs every cross-query cache in the system
/// (the nUDF result cache and the prepared-plan cache). Keys are pre-hashed
/// uint64s; values are type-erased shared pointers with an explicit byte
/// charge, so one cache class serves heterogeneous payloads without template
/// bloat. Each shard has its own mutex + LRU list, which keeps concurrent
/// morsel workers from serializing on a single lock.
///
/// Observability: every cache feeds the global MetricsRegistry both in
/// aggregate (cache.hits / cache.misses / cache.evictions) and per cache
/// (cache.<name>.hits, cache.<name>.misses, cache.<name>.evictions, plus a
/// cache.<name>.bytes gauge), so ExplainAnalyze's counter footer shows
/// per-query hit/miss deltas with no extra wiring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mem_tracker.h"

namespace dl2sql {

class Counter;
class Gauge;

/// 64-bit FNV-1a over a byte range. Deterministic across runs/platforms, good
/// avalanche for hash-table keys; not cryptographic.
inline uint64_t Hash64(const void* data, size_t len,
                       uint64_t seed = 0xcbf29ce484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline uint64_t Hash64(const std::string& s,
                       uint64_t seed = 0xcbf29ce484222325ull) {
  return Hash64(s.data(), s.size(), seed);
}

/// Order-dependent combination of two 64-bit hashes (boost-style mix).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  a ^= b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2);
  return a;
}

/// Point-in-time counters of one cache (monotonic except bytes/entries).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
};

/// \brief Thread-safe LRU cache with a byte budget, split into shards.
///
/// Lookup/Insert/Erase are safe from any thread. Values are immutable once
/// inserted (shared_ptr<const void>); a Lookup returns a reference that stays
/// valid even if the entry is evicted concurrently. Inserting an existing key
/// replaces the value and refreshes its LRU position. A single value larger
/// than a shard's budget is still admitted (it becomes the shard's only
/// entry) so pathological charges degrade to "cache of one" rather than
/// thrash.
class ShardedLruCache {
 public:
  using ValuePtr = std::shared_ptr<const void>;

  /// `name` keys the per-cache metrics (cache.<name>.*). `capacity_bytes` is
  /// the total budget across all 2^shard_bits shards.
  ShardedLruCache(std::string name, size_t capacity_bytes, int shard_bits = 4);

  /// Returns the cached value or nullptr; counts a hit or a miss.
  ValuePtr Lookup(uint64_t key);

  /// Lookup for entries that can go stale: returns the cached value when
  /// `fresh(value)` accepts it, counted as a hit; otherwise erases a stale
  /// entry and counts a miss. `fresh` runs outside the shard lock.
  ValuePtr LookupFresh(uint64_t key,
                       const std::function<bool(const void*)>& fresh);

  /// Inserts (or replaces) `key`, charging `charge` bytes against the shard
  /// budget and evicting LRU entries as needed.
  void Insert(uint64_t key, ValuePtr value, size_t charge);

  /// Removes `key` if present (not counted as an eviction).
  bool Erase(uint64_t key);

  /// Drops every entry (invalidation hook; not counted as evictions).
  void Clear();

  CacheStats stats() const;
  size_t bytes() const;
  int64_t entries() const;
  const std::string& name() const { return name_; }
  size_t capacity_bytes() const { return capacity_bytes_; }

  /// This cache's memory tracker ("cache.<name>", child of the process
  /// tracker): entry charges are consumed on insert and released on
  /// evict/erase/clear, so system-wide accounting sees cache residency.
  const MemTracker& mem_tracker() const { return mem_; }

  /// Convenience: lookup already cast to the payload type.
  template <typename T>
  std::shared_ptr<const T> LookupAs(uint64_t key) {
    return std::static_pointer_cast<const T>(Lookup(key));
  }

  /// LookupFresh already cast to the payload type; `fresh` takes a const T&.
  template <typename T, typename Pred>
  std::shared_ptr<const T> LookupFreshAs(uint64_t key, Pred fresh) {
    return std::static_pointer_cast<const T>(LookupFresh(
        key, [&](const void* v) { return fresh(*static_cast<const T*>(v)); }));
  }

 private:
  struct Entry {
    uint64_t key;
    ValuePtr value;
    size_t charge;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  /// The entry's value (refreshing its recency) or nullptr; counts nothing.
  ValuePtr Find(uint64_t key);
  void CountLookup(bool hit);

  Shard& ShardFor(uint64_t key) {
    // High bits pick the shard; low bits feed the per-shard hash map.
    return *shards_[(key >> 56) & shard_mask_];
  }
  void UpdateBytesGauge();

  const std::string name_;
  const size_t capacity_bytes_;
  MemTracker mem_;
  size_t shard_mask_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Registry handles resolved once at construction (lock-free afterwards).
  Counter* hits_total_;
  Counter* misses_total_;
  Counter* evictions_total_;
  Counter* hits_;
  Counter* misses_;
  Counter* insertions_;
  Counter* evictions_;
  Gauge* bytes_gauge_;
};

}  // namespace dl2sql
