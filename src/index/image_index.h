// The value types a per-partition image index answers with: one search hit
// as it travels searcher -> broker -> blender, and the per-query
// diagnostics of a hybrid (filtered) scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "filter/filter_expression.h"
#include "mq/message.h"
#include "vecmath/vector.h"

namespace jdvs {

// Per-query diagnostics of a hybrid (filtered) search: which pushdown
// strategy the index chose, how selective the materialized filter was and
// how much scan work the bitmap saved. Caller-owned, filled by the query
// that receives it — no concurrency.
struct FilterScanStats {
  enum class Strategy : std::uint8_t {
    kNone = 0,      // no filter, plain scan
    kPre = 1,       // bitmap evaluated per sub-block before the kernel
    kPost = 2,      // kernel survivors tested against the bitmap
    kFallback = 3,  // naive over-fetch + post-filter (PostFilteredSearch)
  };

  Strategy strategy = Strategy::kNone;
  // matches / universe in basis points (10000 = everything passes).
  std::uint32_t selectivity_bp = 10000;
  std::size_t matches = 0;
  std::size_t universe = 0;
  // 64-entry sub-blocks whose kernel call was skipped because the bitmap
  // proved them wholly dead vs sub-blocks actually scanned.
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_scanned = 0;
  // True when extreme selectivity widened nprobe to keep recall.
  bool widened_nprobe = false;
  // True when the selectivity came from a sampled estimate and no bitmap was
  // ever materialized (broad-filter direct post mode) — matches/blocks
  // fields are then not populated by a bitmap.
  bool estimated = false;
  // Cost of materializing the filter bitmap (the "searcher_filter" stage).
  std::int64_t materialize_micros = 0;
};

const char* FilterStrategyName(FilterScanStats::Strategy strategy) noexcept;

// One search result as shipped from searcher to broker to blender. Strings
// are owned copies: results cross (simulated) process boundaries.
struct SearchHit {
  ImageId image_id = 0;
  float distance = 0.f;
  ProductId product_id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string image_url;
  std::string detail_url;
};

}  // namespace jdvs
