#include "store/catalog.h"

#include <algorithm>
#include <mutex>

namespace jdvs {

std::string MakeImageUrl(ProductId product_id, std::uint32_t k) {
  return "jd://img/" + std::to_string(product_id) + "/" + std::to_string(k);
}

void ProductCatalog::Upsert(ProductRecord record) {
  std::unique_lock lock(mu_);
  products_.insert_or_assign(record.id, std::move(record));
}

std::optional<ProductRecord> ProductCatalog::Get(ProductId id) const {
  std::shared_lock lock(mu_);
  const auto it = products_.find(id);
  if (it == products_.end()) return std::nullopt;
  return it->second;
}

bool ProductCatalog::Contains(ProductId id) const {
  std::shared_lock lock(mu_);
  return products_.find(id) != products_.end();
}

std::vector<std::string> ProductCatalog::Apply(
    const ProductUpdateMessage& message) {
  std::unique_lock lock(mu_);
  auto it = products_.find(message.product_id);
  if (it == products_.end()) {
    if (message.type != UpdateType::kAddProduct) return {};
    ProductRecord record;
    record.id = message.product_id;
    record.category = message.category_id;
    record.attributes = message.attributes;
    record.detail_url = message.detail_url;
    record.image_urls = message.image_urls;
    it = products_.emplace(record.id, std::move(record)).first;
    return it->second.image_urls;
  }
  ProductRecord& record = it->second;
  switch (message.type) {
    case UpdateType::kAddProduct:
      record.on_market = true;
      for (const std::string& url : message.image_urls) {
        if (std::find(record.image_urls.begin(), record.image_urls.end(),
                      url) == record.image_urls.end()) {
          record.image_urls.push_back(url);
        }
      }
      [[fallthrough]];
    case UpdateType::kAttributeUpdate:
      record.attributes = message.attributes;
      if (!message.detail_url.empty()) record.detail_url = message.detail_url;
      break;
    case UpdateType::kRemoveProduct:
      record.on_market = false;
      break;
  }
  return record.image_urls;
}

std::size_t ProductCatalog::size() const {
  std::shared_lock lock(mu_);
  return products_.size();
}

std::vector<ProductId> ProductCatalog::AllIds() const {
  std::shared_lock lock(mu_);
  std::vector<ProductId> ids;
  ids.reserve(products_.size());
  for (const auto& [id, record] : products_) ids.push_back(id);
  return ids;
}

void ProductCatalog::ForEach(
    const std::function<void(const ProductRecord&)>& visit) const {
  for (const ProductId id : AllIds()) {
    if (auto record = Get(id)) visit(*record);
  }
}

}  // namespace jdvs
