// The value types a per-partition image index answers with: the packed hit
// list that travels searcher -> broker -> blender, the search hit the
// blender ranks, and the per-query diagnostics of a hybrid (filtered) scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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

// One search result as the blender ranks and returns it. Strings are owned
// copies. Below the blender results travel as HitList rows; a SearchHit is
// built only for the candidates the blender ranks (HitList::Unpack), and by
// the SearchHit-returning facades tests and tools call.
struct SearchHit {
  ImageId image_id = 0;
  float distance = 0.f;
  ProductId product_id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string image_url;
  std::string detail_url;
};

// A ranked result list as shipped from searcher to broker to blender:
// fixed-size rows plus one byte buffer holding every row's image URL and
// detail URL, addressed by offset — the forward index's own layout
// (Section 2.2). A list is two heap blocks however many hits it holds, and
// it owns its bytes: a reply that crosses a (simulated) process boundary
// must not point into the index that produced it.
class HitList {
 public:
  // One hit's fixed-size fields. Its image URL is the `image_url_size`
  // bytes at `url_offset` in the list's buffer, its detail URL the
  // `detail_url_size` bytes right after.
  struct Row {
    ImageId image_id = 0;
    float distance = 0.f;
    CategoryId category = 0;
    ProductId product_id = 0;
    ProductAttributes attributes;
    std::uint32_t url_offset = 0;
    std::uint32_t image_url_size = 0;
    std::uint32_t detail_url_size = 0;
  };

  void Reserve(std::size_t rows, std::size_t url_bytes);
  // Appends one hit with `fields`' id, distance, product, category and
  // attributes, copying both URLs into the buffer (its URL fields are
  // ignored).
  void Append(const Row& fields, std::string_view image_url,
              std::string_view detail_url);
  void Append(const SearchHit& hit);
  // Appends row `i` of `other`, copying its URL bytes.
  void AppendRow(const HitList& other, std::size_t i);

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }
  const Row& operator[](std::size_t i) const noexcept { return rows_[i]; }
  std::string_view image_url(std::size_t i) const noexcept;
  std::string_view detail_url(std::size_t i) const noexcept;

  // Every row, in order, as SearchHits with owned string copies.
  std::vector<SearchHit> Unpack() const;

 private:
  std::vector<Row> rows_;
  std::string urls_;
};

// The merge rule of every tier, written once: the rows of all `lists`
// ordered by (distance, image_id), truncated to k, keeping the first row of
// each image_id (a failover retry or a hedge can return one image twice).
// Rows tied on both keys keep list order, then row order; the lists need not
// be sorted. Only the survivors' rows and URL bytes are copied into the new
// list, which owns them.
HitList MergeHitLists(std::span<const HitList> lists, std::size_t k);

}  // namespace jdvs
