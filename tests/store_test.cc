// Tests for catalog, image store, and feature DB (reuse path).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/catalog.h"
#include "store/feature_db.h"
#include "store/image_store.h"

namespace jdvs {
namespace {

ProductRecord MakeProduct(ProductId id, CategoryId category = 1) {
  ProductRecord record;
  record.id = id;
  record.category = category;
  record.attributes = {.sales = 10, .price_cents = 500, .praise = 3};
  record.detail_url = "jd://item/" + std::to_string(id);
  record.image_urls = {MakeImageUrl(id, 0), MakeImageUrl(id, 1)};
  return record;
}

TEST(CatalogTest, UpsertGetRoundTrip) {
  ProductCatalog catalog;
  catalog.Upsert(MakeProduct(7));
  const auto record = catalog.Get(7);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->id, 7u);
  EXPECT_EQ(record->image_urls.size(), 2u);
  EXPECT_TRUE(record->on_market);
  EXPECT_FALSE(catalog.Get(8).has_value());
}

ProductUpdateMessage Message(UpdateType type, ProductId id) {
  ProductUpdateMessage message;
  message.type = type;
  message.product_id = id;
  return message;
}

TEST(CatalogTest, UpdateAttributesOnlyTouchesExisting) {
  ProductCatalog catalog;
  catalog.Upsert(MakeProduct(7));
  ProductUpdateMessage update = Message(UpdateType::kAttributeUpdate, 7);
  update.attributes = {.sales = 99, .price_cents = 1, .praise = 5};
  update.detail_url = "jd://new";
  EXPECT_EQ(catalog.Apply(update).size(), 2u);
  update.product_id = 8;
  EXPECT_TRUE(catalog.Apply(update).empty());
  EXPECT_FALSE(catalog.Contains(8));
  const auto record = catalog.Get(7);
  EXPECT_EQ(record->attributes.sales, 99u);
  EXPECT_EQ(record->detail_url, "jd://new");
}

TEST(CatalogTest, EmptyDetailUrlKeepsOld) {
  ProductCatalog catalog;
  catalog.Upsert(MakeProduct(7));
  catalog.Apply(Message(UpdateType::kAttributeUpdate, 7));
  EXPECT_EQ(catalog.Get(7)->detail_url, "jd://item/7");
}

TEST(CatalogTest, SetOnMarketFlips) {
  ProductCatalog catalog;
  catalog.Upsert(MakeProduct(7));
  catalog.Apply(Message(UpdateType::kRemoveProduct, 7));
  EXPECT_FALSE(catalog.Get(7)->on_market);
  catalog.Apply(Message(UpdateType::kAddProduct, 7));
  EXPECT_TRUE(catalog.Get(7)->on_market);
  EXPECT_TRUE(catalog.Apply(Message(UpdateType::kRemoveProduct, 99)).empty());
  EXPECT_FALSE(catalog.Contains(99));
}

TEST(CatalogTest, RelistKeepsEveryImageUrl) {
  ProductCatalog catalog;
  catalog.Upsert(MakeProduct(7));
  ProductUpdateMessage relist = Message(UpdateType::kAddProduct, 7);
  relist.image_urls = {MakeImageUrl(7, 1), MakeImageUrl(7, 5)};
  const std::vector<std::string> expected = {
      MakeImageUrl(7, 0), MakeImageUrl(7, 1), MakeImageUrl(7, 5)};
  EXPECT_EQ(catalog.Apply(relist), expected);
  EXPECT_EQ(catalog.Apply(relist), expected);  // no duplicates
  EXPECT_EQ(catalog.Get(7)->image_urls, expected);

  // A new product's record takes the message's URLs as they are.
  ProductUpdateMessage add = Message(UpdateType::kAddProduct, 8);
  add.category_id = 3;
  add.image_urls = {MakeImageUrl(8, 0)};
  EXPECT_EQ(catalog.Apply(add), add.image_urls);
  EXPECT_EQ(catalog.Get(8)->category, 3u);
  EXPECT_TRUE(catalog.Get(8)->on_market);
}

TEST(CatalogTest, ForEachVisitsEverything) {
  ProductCatalog catalog;
  for (ProductId id = 1; id <= 20; ++id) catalog.Upsert(MakeProduct(id));
  std::set<ProductId> seen;
  catalog.ForEach([&](const ProductRecord& r) { seen.insert(r.id); });
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(catalog.size(), 20u);
  EXPECT_EQ(catalog.AllIds().size(), 20u);
}

TEST(ImageStoreTest, FetchReturnsRegisteredContent) {
  ImageStore store;
  store.Put("jd://img/1/0", 1, 4);
  const auto content = store.Fetch("jd://img/1/0");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(content->product_id, 1u);
  EXPECT_EQ(content->category_id, 4u);
  EXPECT_EQ(content->url, "jd://img/1/0");
  EXPECT_FALSE(store.Fetch("jd://img/9/9").has_value());
  EXPECT_EQ(store.fetch_count(), 2u);
}

TEST(ImageStoreTest, ContainsAndSize) {
  ImageStore store;
  EXPECT_FALSE(store.Contains("x"));
  store.Put("x", 1, 1);
  EXPECT_TRUE(store.Contains("x"));
  EXPECT_EQ(store.size(), 1u);
}

TEST(FeatureDbTest, ExtractOnceThenReuse) {
  const SyntheticEmbedder embedder({.dim = 16, .num_categories = 4, .seed = 1});
  FeatureDb db(embedder, ExtractionCostModel{.mean_micros = 0});
  Rng rng(1);
  const ImageContent content{"jd://img/1/0", 1, 2};

  auto [first, reused_first] = db.GetOrExtract(content, rng);
  EXPECT_FALSE(reused_first);
  auto [second, reused_second] = db.GetOrExtract(content, rng);
  EXPECT_TRUE(reused_second);
  EXPECT_EQ(first, second);

  const FeatureDbStats stats = db.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.extracted, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_NEAR(stats.ReuseRate(), 0.5, 1e-9);
}

TEST(FeatureDbTest, ExtractedFeatureMatchesEmbedder) {
  const SyntheticEmbedder embedder({.dim = 16, .num_categories = 4, .seed = 1});
  FeatureDb db(embedder, ExtractionCostModel{.mean_micros = 0});
  Rng rng(1);
  const ImageContent content{"jd://img/3/0", 3, 1};
  EXPECT_EQ(db.GetOrExtract(content, rng).first, embedder.Extract(content));
}

TEST(FeatureDbTest, PreloadSkipsExtraction) {
  const SyntheticEmbedder embedder({.dim = 16, .num_categories = 4, .seed = 1});
  FeatureDb db(embedder, ExtractionCostModel{.mean_micros = 0});
  const ImageContent content{"jd://img/1/0", 1, 2};
  db.Preload(content.url, embedder.Extract(content));
  EXPECT_TRUE(db.Contains(content.url));

  Rng rng(1);
  auto [feature, reused] = db.GetOrExtract(content, rng);
  EXPECT_TRUE(reused);
  EXPECT_EQ(db.stats().extracted, 0u);
  EXPECT_EQ(feature, embedder.Extract(content));
}

TEST(FeatureDbTest, GetWithoutExtraction) {
  const SyntheticEmbedder embedder({.dim = 16, .num_categories = 4, .seed = 1});
  FeatureDb db(embedder, ExtractionCostModel{.mean_micros = 0});
  EXPECT_FALSE(db.Get("missing").has_value());
  EXPECT_EQ(db.size(), 0u);
}

}  // namespace
}  // namespace jdvs
