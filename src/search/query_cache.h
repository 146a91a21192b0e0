// Query-result cache for the blender tier.
//
// Production visual-search traffic is heavily skewed toward trending
// products, so front ends cache hot results. The paper's defining
// requirement, however, is data freshness — "the search results should
// reflect the most recent updates" — so this cache is deliberately
// conservative: entries expire after a short TTL (bounding staleness to a
// known window) and can additionally be pinned to an index-version counter
// for strict invalidation. Disabled by default; the ablation bench
// quantifies the hit-rate-vs-staleness trade.
//
// Keys are locality-sensitive signatures of the query feature (random
// hyperplane bits), so near-duplicate query photos of the same product can
// share an entry; the full key mixes in k and nprobe.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "obs/registry.h"
#include "search/types.h"
#include "vecmath/vector.h"

namespace jdvs {

struct QueryCacheConfig {
  std::size_t capacity = 4096;  // entries; LRU eviction beyond this
  // Staleness bound: entries older than this are treated as misses.
  Micros ttl_micros = 2'000'000;
  // Signature resolution: more bits = fewer near-duplicate collisions but
  // also fewer near-duplicate hits. Rounded up to a multiple of 64.
  std::size_t signature_bits = 64;
  std::uint64_t seed = 97;
  // When true, a cached entry also requires the index-version counter to be
  // unchanged since insertion (strict freshness; near-zero hit rate under a
  // production update stream — the trade the paper's freshness goal forces).
  bool strict_version_check = false;
};

struct QueryCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t expired = 0;   // TTL misses
  std::uint64_t stale = 0;     // version-check misses
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  // Inserts refused because the response was degraded (partial coverage or
  // a nonzero QoS degradation level) — low-effort answers must not outlive
  // the overload that produced them.
  std::uint64_t rejected_degraded = 0;

  double HitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

class QueryCache {
 public:
  // `registry` (null = process-global default) receives mirror counters of
  // the stats below, labeled with `owner` (the owning blender's name), so a
  // single exposition dump reports every cache.
  QueryCache(std::size_t dim, const QueryCacheConfig& config = {},
             const Clock& clock = MonotonicClock::Instance(),
             obs::Registry* registry = nullptr,
             std::string_view owner = "default");

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // Cache key for a query feature + options. Deterministic; thread-safe.
  // The full FilterExpression participates in the key: two queries that
  // differ only in a predicate (category tag or numeric range) must never
  // share an entry — a cached hit list for "price <= 5000" is wrong for
  // "price <= 4999".
  std::uint64_t KeyFor(FeatureView feature, std::size_t k, std::size_t nprobe,
                       const FilterExpression& filter = {}) const;

  // Returns the cached response if present, fresh (TTL) and — under strict
  // checking — inserted at the same `version`.
  std::optional<QueryResponse> Lookup(std::uint64_t key,
                                      std::uint64_t version);

  // Inserts a response. Degraded responses — partial coverage (`degraded`)
  // or answered at a nonzero degradation level — are refused: serving them
  // from cache would extend a transient overload's quality loss past the
  // overload itself (and past the failed partition's recovery).
  void Insert(std::uint64_t key, std::uint64_t version,
              const QueryResponse& response);

  void Clear();
  std::size_t size() const;
  QueryCacheStats stats() const;

 private:
  struct Entry {
    std::uint64_t key;
    std::uint64_t version;
    Micros inserted_at;
    QueryResponse response;
  };

  const std::size_t dim_;
  QueryCacheConfig config_;
  const Clock* clock_;
  std::vector<float> hyperplanes_;  // signature_bits x dim

  // Registry mirrors of stats_ (hit/miss attribution in one dump).
  obs::Counter* lookups_total_;
  obs::Counter* hits_total_;
  obs::Counter* misses_total_;
  obs::Counter* rejected_degraded_total_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  QueryCacheStats stats_;
};

}  // namespace jdvs
