#include "dataplane/megaflow_cache.h"

namespace zen::dataplane {

void MegaflowCache::sync_version(std::uint64_t version) {
  // Coarse invalidation: any rule-affecting change bumps the version and
  // strands every cached entry at once. Dropping them eagerly on the first
  // probe under a new version keeps the table from filling with dead
  // entries that every later find would walk (and, at capacity, evict one
  // by one). The clear's cost is bounded by the inserts since the last
  // bump, so it amortizes to O(1) per insert.
  if (version != last_version_) {
    map_.clear();
    last_version_ = version;
  }
}

const CachedVerdict* MegaflowCache::find(const net::FlowKey& key,
                                         std::uint64_t version) {
  if (!enabled_) return nullptr;
  sync_version(version);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    shard_->bump(miss_slot_);
    return nullptr;
  }
  ++hits_;
  shard_->bump(hit_slot_);
  return &it->second.verdict;
}

const CachedVerdict* MegaflowCache::peek(const net::FlowKey& key,
                                         std::uint64_t version) const noexcept {
  if (!enabled_) return nullptr;
  const auto it = map_.find(key);
  if (it == map_.end() || it->second.version != version) return nullptr;
  return &it->second.verdict;
}

void MegaflowCache::insert(const net::FlowKey& key, CachedVerdict verdict,
                           std::uint64_t version) {
  if (!enabled_ || !verdict.cacheable) return;
  sync_version(version);
  // Land the slot first, then evict if that pushed the table past capacity.
  // Steady-state size is capacity_ exactly as with evict-then-insert, but
  // the insert hashes the key once instead of three times
  // (contains + erase + operator[]).
  const auto [it, inserted] = map_.try_emplace(key);
  it->second.verdict = std::move(verdict);
  it->second.version = version;
  if (!inserted || map_.size() <= capacity_ || map_.size() < 2) return;
  // Random replacement in O(1) expected: probe pseudo-random hash buckets
  // and evict the first occupant found (a kernel flow cache under churn
  // behaves the same way) — skipping the entry that just landed.
  const std::size_t buckets = map_.bucket_count();
  for (;;) {
    evict_seed_ =
        evict_seed_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t b = (evict_seed_ >> 33) % buckets;
    for (auto vit = map_.begin(b); vit != map_.end(b); ++vit) {
      if (vit->first == key) continue;
      map_.erase(vit->first);
      ++evictions_;
      shard_->bump(evict_slot_);
      return;
    }
  }
}

}  // namespace zen::dataplane
