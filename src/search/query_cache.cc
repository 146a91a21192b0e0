#include "search/query_cache.h"

#include <cassert>

#include "common/hash.h"
#include "common/rng.h"
#include "vecmath/distance.h"

namespace jdvs {

QueryCache::QueryCache(std::size_t dim, const QueryCacheConfig& config,
                       const Clock& clock, obs::Registry* registry,
                       std::string_view owner)
    : dim_(dim), config_(config), clock_(&clock) {
  config_.signature_bits = (std::max<std::size_t>(config_.signature_bits, 1) +
                            63) / 64 * 64;
  config_.capacity = std::max<std::size_t>(config_.capacity, 1);
  Rng rng(config_.seed);
  hyperplanes_.resize(config_.signature_bits * dim_);
  for (float& x : hyperplanes_) x = static_cast<float>(rng.NextGaussian());

  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::Default();
  lookups_total_ = &reg.GetCounter(
      obs::Labeled("jdvs_cache_lookups_total", "owner", owner));
  hits_total_ =
      &reg.GetCounter(obs::Labeled("jdvs_cache_hits_total", "owner", owner));
  misses_total_ =
      &reg.GetCounter(obs::Labeled("jdvs_cache_misses_total", "owner", owner));
  rejected_degraded_total_ = &reg.GetCounter(
      obs::Labeled("jdvs_cache_rejected_degraded_total", "owner", owner));
}

std::uint64_t QueryCache::KeyFor(FeatureView feature, std::size_t k,
                                 std::size_t nprobe,
                                 const FilterExpression& filter) const {
  assert(feature.size() == dim_);
  std::uint64_t key = Mix64(config_.seed);
  std::uint64_t word = 0;
  for (std::size_t b = 0; b < config_.signature_bits; ++b) {
    const FeatureView plane(&hyperplanes_[b * dim_], dim_);
    word = (word << 1) | (InnerProduct(plane, feature) >= 0.f ? 1u : 0u);
    if ((b + 1) % 64 == 0) {
      key = HashCombine(key, Mix64(word));
      word = 0;
    }
  }
  key = HashCombine(key, Mix64(k));
  key = HashCombine(key, Mix64(nprobe + 0x9e37ULL));
  // Full filter expression, a category scope included.
  key = HashCombine(key, filter.Hash());
  return key;
}

std::optional<QueryResponse> QueryCache::Lookup(std::uint64_t key,
                                                std::uint64_t version) {
  std::lock_guard lock(mu_);
  ++stats_.lookups;
  lookups_total_->Increment();
  const auto it = map_.find(key);
  if (it == map_.end()) {
    misses_total_->Increment();
    return std::nullopt;
  }
  Entry& entry = *it->second;
  if (clock_->NowMicros() - entry.inserted_at > config_.ttl_micros) {
    ++stats_.expired;
    misses_total_->Increment();
    lru_.erase(it->second);
    map_.erase(it);
    return std::nullopt;
  }
  if (config_.strict_version_check && entry.version != version) {
    ++stats_.stale;
    misses_total_->Increment();
    lru_.erase(it->second);
    map_.erase(it);
    return std::nullopt;
  }
  // Touch: move to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  hits_total_->Increment();
  return entry.response;
}

void QueryCache::Insert(std::uint64_t key, std::uint64_t version,
                        const QueryResponse& response) {
  if (response.degraded || response.degradation_level > 0) {
    std::lock_guard lock(mu_);
    ++stats_.rejected_degraded;
    rejected_degraded_total_->Increment();
    return;
  }
  std::lock_guard lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.erase(it->second);
    map_.erase(it);
  }
  lru_.push_front(Entry{key, version, clock_->NowMicros(), response});
  map_[key] = lru_.begin();
  ++stats_.insertions;
  while (lru_.size() > config_.capacity) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void QueryCache::Clear() {
  std::lock_guard lock(mu_);
  lru_.clear();
  map_.clear();
}

std::size_t QueryCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

QueryCacheStats QueryCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace jdvs
