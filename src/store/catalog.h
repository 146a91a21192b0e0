// Product catalog: the source-of-truth product database the indexing
// pipeline reads from. In production this is JD's product service; here it
// is an in-memory registry populated by the synthetic catalog generator and
// mutated by the update trace.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mq/message.h"
#include "vecmath/vector.h"

namespace jdvs {

struct ProductRecord {
  ProductId id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string detail_url;
  std::vector<std::string> image_urls;
  bool on_market = true;
};

// Canonical image URL for image #k of a product.
std::string MakeImageUrl(ProductId product_id, std::uint32_t k);

class ProductCatalog {
 public:
  ProductCatalog() = default;
  ProductCatalog(const ProductCatalog&) = delete;
  ProductCatalog& operator=(const ProductCatalog&) = delete;

  // Inserts or replaces a product record.
  void Upsert(ProductRecord record);

  std::optional<ProductRecord> Get(ProductId id) const;
  bool Contains(ProductId id) const;

  // Applies one update message to its product's record, under one lock. An
  // attribute update rewrites the attributes (and a non-empty detail URL).
  // An addition creates the record, or re-lists a known product: back on
  // the market, attributes refreshed, and every image URL the record lacks
  // appended, so the next full build keeps each image the product was
  // given. A removal takes the product off the market. Returns the record's
  // image URLs after the apply (empty for a product the catalog does not
  // know).
  std::vector<std::string> Apply(const ProductUpdateMessage& message);

  std::size_t size() const;

  std::vector<ProductId> AllIds() const;

  // Visits every record (snapshot of ids, then per-id lookup, so the lock is
  // never held across the callback).
  void ForEach(const std::function<void(const ProductRecord&)>& visit) const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<ProductId, ProductRecord> products_;
};

}  // namespace jdvs
