#include "index/image_index.h"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace jdvs {

const char* FilterStrategyName(FilterScanStats::Strategy strategy) noexcept {
  switch (strategy) {
    case FilterScanStats::Strategy::kNone:
      return "none";
    case FilterScanStats::Strategy::kPre:
      return "pre";
    case FilterScanStats::Strategy::kPost:
      return "post";
    case FilterScanStats::Strategy::kFallback:
      return "fallback";
  }
  return "unknown";
}

// A row is one cache line; DESIGN.md and the list's comment rely on it.
static_assert(sizeof(HitList::Row) == 64);

void HitList::Reserve(std::size_t rows, std::size_t url_bytes) {
  rows_.reserve(rows);
  urls_.reserve(url_bytes);
}

void HitList::Append(const Row& fields, std::string_view image_url,
                     std::string_view detail_url) {
  Row& row = rows_.emplace_back(fields);
  row.url_offset = static_cast<std::uint32_t>(urls_.size());
  row.image_url_size = static_cast<std::uint32_t>(image_url.size());
  row.detail_url_size = static_cast<std::uint32_t>(detail_url.size());
  urls_.append(image_url);
  urls_.append(detail_url);
}

void HitList::Append(const SearchHit& hit) {
  Append({.image_id = hit.image_id,
          .distance = hit.distance,
          .category = hit.category,
          .product_id = hit.product_id,
          .attributes = hit.attributes},
         hit.image_url, hit.detail_url);
}

void HitList::AppendRow(const HitList& other, std::size_t i) {
  assert(&other != this);  // the views below would dangle on a regrow
  Append(other[i], other.image_url(i), other.detail_url(i));
}

std::string_view HitList::image_url(std::size_t i) const noexcept {
  const Row& row = rows_[i];
  return std::string_view(urls_).substr(row.url_offset, row.image_url_size);
}

std::string_view HitList::detail_url(std::size_t i) const noexcept {
  const Row& row = rows_[i];
  return std::string_view(urls_).substr(row.url_offset + row.image_url_size,
                                        row.detail_url_size);
}

std::vector<SearchHit> HitList::Unpack() const {
  std::vector<SearchHit> hits;
  hits.reserve(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    hits.push_back({.image_id = row.image_id,
                    .distance = row.distance,
                    .product_id = row.product_id,
                    .category = row.category,
                    .attributes = row.attributes,
                    .image_url = std::string(image_url(i)),
                    .detail_url = std::string(detail_url(i))});
  }
  return hits;
}

HitList MergeHitLists(std::span<const HitList> lists, std::size_t k) {
  // Sort small keys, not rows: a row is a cache line and its URLs live in
  // another block, while the order needs only (distance, image_id) and the
  // row's position.
  struct Key {
    float distance;
    ImageId image_id;
    std::uint32_t list;
    std::uint32_t row;
  };
  std::vector<Key> keys;
  std::size_t total = 0;
  for (const HitList& list : lists) total += list.size();
  keys.reserve(total);
  for (std::size_t l = 0; l < lists.size(); ++l) {
    for (std::size_t r = 0; r < lists[l].size(); ++r) {
      keys.push_back({lists[l][r].distance, lists[l][r].image_id,
                      static_cast<std::uint32_t>(l),
                      static_cast<std::uint32_t>(r)});
    }
  }
  const auto less = [](const Key& a, const Key& b) {
    return std::tie(a.distance, a.image_id, a.list, a.row) <
           std::tie(b.distance, b.image_id, b.list, b.row);
  };
  if (keys.size() > k) {
    std::partial_sort(keys.begin(), keys.begin() + k, keys.end(), less);
    keys.resize(k);
  } else {
    std::sort(keys.begin(), keys.end(), less);
  }
  // Duplicates of an image drop out after the truncation, as they always
  // have: the merged list can hold fewer than k rows.
  std::size_t kept = 0;
  for (const Key& key : keys) {
    if (std::none_of(keys.begin(), keys.begin() + kept, [&](const Key& first) {
          return first.image_id == key.image_id;
        })) {
      keys[kept++] = key;
    }
  }
  keys.resize(kept);
  std::size_t url_bytes = 0;
  for (const Key& key : keys) {
    const HitList::Row& row = lists[key.list][key.row];
    url_bytes += row.image_url_size + row.detail_url_size;
  }
  HitList merged;
  merged.Reserve(keys.size(), url_bytes);
  for (const Key& key : keys) merged.AppendRow(lists[key.list], key.row);
  return merged;
}

}  // namespace jdvs
