#include "common/cache.h"

#include <algorithm>

#include "common/metrics.h"

namespace dl2sql {

ShardedLruCache::ShardedLruCache(std::string name, size_t capacity_bytes,
                                 int shard_bits)
    : name_(std::move(name)),
      capacity_bytes_(capacity_bytes),
      mem_("cache." + name_, MemTracker::Process()) {
  shard_bits = std::clamp(shard_bits, 0, 8);
  const size_t num_shards = size_t{1} << shard_bits;
  shard_mask_ = num_shards - 1;
  per_shard_capacity_ = std::max<size_t>(1, capacity_bytes_ / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  hits_total_ = reg.counter("cache.hits");
  misses_total_ = reg.counter("cache.misses");
  evictions_total_ = reg.counter("cache.evictions");
  hits_ = reg.counter("cache." + name_ + ".hits");
  misses_ = reg.counter("cache." + name_ + ".misses");
  insertions_ = reg.counter("cache." + name_ + ".insertions");
  evictions_ = reg.counter("cache." + name_ + ".evictions");
  bytes_gauge_ = reg.gauge("cache." + name_ + ".bytes");
}

ShardedLruCache::ValuePtr ShardedLruCache::Find(uint64_t key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  // Refresh recency: splice the entry to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ShardedLruCache::CountLookup(bool hit) {
  if (hit) {
    hits_->Increment();
    hits_total_->Increment();
  } else {
    misses_->Increment();
    misses_total_->Increment();
  }
}

ShardedLruCache::ValuePtr ShardedLruCache::Lookup(uint64_t key) {
  ValuePtr value = Find(key);
  CountLookup(value != nullptr);
  return value;
}

ShardedLruCache::ValuePtr ShardedLruCache::LookupFresh(
    uint64_t key, const std::function<bool(const void*)>& fresh) {
  ValuePtr value = Find(key);
  if (value != nullptr && !fresh(value.get())) {
    Erase(key);
    value = nullptr;
  }
  CountLookup(value != nullptr);
  return value;
}

void ShardedLruCache::Insert(uint64_t key, ValuePtr value, size_t charge) {
  Shard& shard = ShardFor(key);
  int64_t evicted = 0;
  int64_t bytes_delta = 0;  // net change to charge/release from the tracker
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->charge;
      bytes_delta -= static_cast<int64_t>(it->second->charge);
      it->second->value = std::move(value);
      it->second->charge = charge;
      shard.bytes += charge;
      bytes_delta += static_cast<int64_t>(charge);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), charge});
      shard.index[key] = shard.lru.begin();
      shard.bytes += charge;
      bytes_delta += static_cast<int64_t>(charge);
    }
    // Evict from the cold end until within budget, but never the entry just
    // touched (an oversized value may exceed the budget on its own).
    while (shard.bytes > per_shard_capacity_ && shard.lru.size() > 1) {
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.charge;
      bytes_delta -= static_cast<int64_t>(victim.charge);
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++evicted;
    }
  }
  mem_.Consume(bytes_delta);
  insertions_->Increment();
  if (evicted > 0) {
    evictions_->Increment(evicted);
    evictions_total_->Increment(evicted);
  }
  UpdateBytesGauge();
}

bool ShardedLruCache::Erase(uint64_t key) {
  Shard& shard = ShardFor(key);
  bool erased = false;
  int64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      released = static_cast<int64_t>(it->second->charge);
      shard.bytes -= it->second->charge;
      shard.lru.erase(it->second);
      shard.index.erase(it);
      erased = true;
    }
  }
  if (erased) {
    mem_.Release(released);
    UpdateBytesGauge();
  }
  return erased;
}

void ShardedLruCache::Clear() {
  int64_t released = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    released += static_cast<int64_t>(shard->bytes);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
  mem_.Release(released);
  UpdateBytesGauge();
}

CacheStats ShardedLruCache::stats() const {
  CacheStats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.insertions = insertions_->value();
  s.evictions = evictions_->value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.bytes += static_cast<int64_t>(shard->bytes);
    s.entries += static_cast<int64_t>(shard->lru.size());
  }
  return s;
}

size_t ShardedLruCache::bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

int64_t ShardedLruCache::entries() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += static_cast<int64_t>(shard->lru.size());
  }
  return total;
}

void ShardedLruCache::UpdateBytesGauge() {
  bytes_gauge_->Set(static_cast<double>(bytes()));
}

}  // namespace dl2sql
