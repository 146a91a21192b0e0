// Query/response types flowing through the 3-level search architecture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "index/ivf_index.h"
#include "obs/span.h"
#include "qos/deadline.h"
#include "vecmath/vector.h"

namespace jdvs {

// A user's query photo. Synthetic stand-in for uploaded pixels: the photo
// depicts `subject_product` (ground truth for recall measurements) of
// `true_category`; `query_seed` drives the photo-specific noise.
struct QueryImage {
  ProductId subject_product = 0;
  CategoryId true_category = 0;
  std::uint64_t query_seed = 0;
};

struct QueryOptions {
  std::size_t k = 10;       // results returned to the user
  std::size_t nprobe = 0;   // 0 = index default
  // Structured attribute predicates (hybrid filtered search): every result
  // must satisfy this conjunction of category-tag and numeric-range
  // predicates, pushed down into the searcher scan. Empty = unfiltered. A
  // category term (WithCategory) scopes the query to one product category,
  // the production use of the detector's output ("the product category of
  // the item is identified", Section 2.4); a blender configured with
  // use_category_filter adds the detected category when the filter names
  // none.
  FilterExpression filter{};

  // Latency budget (QoS): the blender stamps budget -> absolute deadline at
  // admission and every tier below fails fast once it expires. kNoBudget
  // (the default) falls back to the blender's configured default budget, or
  // unlimited when none is configured. 0 means "no time left": the query is
  // shed at admission without touching the pool.
  static constexpr Micros kNoBudget = -1;
  Micros budget_micros = kNoBudget;
  // Admission class: background work (recovery catch-up, probes, analytics
  // replays) is capped separately so it cannot starve interactive users.
  qos::Priority priority = qos::Priority::kInteractive;
};

// The per-query knobs a Broker or Searcher call carries below the blender.
// The defaults give an unfiltered, untraced top-k with no deadline at the
// index's configured nprobe.
struct SearchOptions {
  std::size_t nprobe = 0;     // 0 = index default
  FilterExpression filter{};  // empty = unfiltered
  qos::Deadline deadline{};   // unlimited by default
  obs::TraceContext parent{}; // a sampled context records child spans
};

// One final ranked result ("the similar products are ranked according to
// their sales, praise, price and other attributes", Section 2.4).
struct RankedResult {
  SearchHit hit;
  double score = 0.0;  // larger is better
};

struct QueryResponse {
  std::vector<RankedResult> results;
  Micros total_micros = 0;     // end-to-end at the blender
  std::size_t brokers_asked = 0;
  std::size_t broker_failures = 0;
  CategoryId detected_category = 0;
  // True when at least one broker slot failed (e.g. NoHealthyBackendError
  // for a fully-down partition): the results cover only the reachable part
  // of the corpus — graceful degradation, not a query error.
  bool degraded = false;
  // Adaptive-degradation effort level this query was answered at: 0 = full
  // effort, 1 = shrunk nprobe, 2 = additionally skipped attribute
  // re-ranking. Nonzero responses are never cached.
  int degradation_level = 0;
  // True when served from the blender's result cache (staleness bounded by
  // the cache TTL) instead of a live fan-out.
  bool from_cache = false;
  // Trace id of this query when it was sampled by the blender's tracer
  // (0 = untraced). Feed it to obs::TraceSink::Render for the span tree.
  std::uint64_t trace_id = 0;
};

// MergeHitLists' rule over SearchHit vectors, for callers that hold
// unpacked hits (oracles that merge per-partition SearchLocal answers).
std::vector<SearchHit> MergeHits(std::vector<std::vector<SearchHit>> partials,
                                 std::size_t k);

}  // namespace jdvs
