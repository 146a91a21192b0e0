// Tests for the periodic full indexing pipeline (Figures 2-3).
#include <gtest/gtest.h>

#include "common/hash.h"
#include "index/full_index_builder.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

struct Fixture {
  Fixture() : features(embedder, ExtractionCostModel{.mean_micros = 0}) {}

  void Populate(std::size_t products, double off_market = 0.0) {
    CatalogGenConfig config;
    config.num_products = products;
    config.num_categories = 8;
    config.min_images_per_product = 2;
    config.max_images_per_product = 4;
    config.initial_off_market_fraction = off_market;
    GenerateCatalog(config, catalog, images);
  }

  FullIndexBuilderConfig BuilderConfig() {
    FullIndexBuilderConfig config;
    config.kmeans.num_clusters = 8;
    config.training_sample = 256;
    return config;
  }

  SyntheticEmbedder embedder{{.dim = 16, .num_categories = 8, .seed = 5}};
  ProductCatalog catalog;
  ImageStore images;
  FeatureDb features;
};

TEST(FullIndexBuilderTest, BuildsIndexOverValidImages) {
  Fixture fx;
  fx.Populate(100);
  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  auto quantizer = builder.TrainQuantizer();
  FullIndexReport report;
  auto index = builder.Build(quantizer, AcceptAllPartitionFilter(), &report);
  EXPECT_EQ(report.products_indexed, 100u);
  EXPECT_GT(report.images_indexed, 0u);
  EXPECT_EQ(index->size(), report.images_indexed);
  EXPECT_EQ(index->Stats().valid_images, report.images_indexed);
}

TEST(FullIndexBuilderTest, SkipsOffMarketProducts) {
  Fixture fx;
  fx.Populate(200, /*off_market=*/0.5);
  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  auto quantizer = builder.TrainQuantizer();
  FullIndexReport report;
  auto index = builder.Build(quantizer, AcceptAllPartitionFilter(), &report);
  EXPECT_GT(report.products_skipped_invalid, 0u);
  EXPECT_EQ(report.products_indexed + report.products_skipped_invalid, 200u);
}

TEST(FullIndexBuilderTest, SecondBuildReusesAllFeatures) {
  Fixture fx;
  fx.Populate(50);
  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  auto quantizer = builder.TrainQuantizer();
  FullIndexReport first;
  builder.Build(quantizer, AcceptAllPartitionFilter(), &first);
  FullIndexReport second;
  builder.Build(quantizer, AcceptAllPartitionFilter(), &second);
  // "always checks if an image's features have been previously extracted".
  // Quantizer training already pulled every feature through the DB, so both
  // builds reuse everything; the extractions happened exactly once, during
  // training.
  EXPECT_EQ(second.features_extracted, 0u);
  EXPECT_EQ(second.features_reused, second.images_indexed);
  EXPECT_EQ(first.features_extracted, 0u);
  EXPECT_GT(fx.features.stats().extracted, 0u);
  EXPECT_EQ(fx.features.size(), first.images_indexed);
}

TEST(FullIndexBuilderTest, PartitionFilterSplitsImages) {
  Fixture fx;
  fx.Populate(100);
  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  auto quantizer = builder.TrainQuantizer();
  const auto even = [](std::string_view url) { return Fnv1a64(url) % 2 == 0; };
  const auto odd = [](std::string_view url) { return Fnv1a64(url) % 2 == 1; };
  FullIndexReport even_report;
  FullIndexReport odd_report;
  auto even_index = builder.Build(quantizer, even, &even_report);
  auto odd_index = builder.Build(quantizer, odd, &odd_report);
  FullIndexReport all_report;
  builder.Build(quantizer, AcceptAllPartitionFilter(), &all_report);
  EXPECT_EQ(even_report.images_indexed + odd_report.images_indexed,
            all_report.images_indexed);
  EXPECT_GT(even_report.images_indexed, 0u);
  EXPECT_GT(odd_report.images_indexed, 0u);
}

TEST(FullIndexBuilderTest, ApplyMessageLogUpdatesCatalogAndClearsLog) {
  Fixture fx;
  fx.Populate(10);
  MessageLog log;

  ProductUpdateMessage add;
  add.type = UpdateType::kAddProduct;
  add.product_id = 500;
  add.category_id = 3;
  add.image_urls = {MakeImageUrl(500, 0)};
  add.attributes = {.sales = 1, .price_cents = 10, .praise = 0};
  log.Append(add);

  ProductUpdateMessage upd;
  upd.type = UpdateType::kAttributeUpdate;
  upd.product_id = 500;
  upd.attributes = {.sales = 42, .price_cents = 10, .praise = 0};
  log.Append(upd);

  ProductUpdateMessage del;
  del.type = UpdateType::kRemoveProduct;
  del.product_id = 1;
  log.Append(del);

  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  EXPECT_EQ(builder.ApplyMessageLog(log), 3u);
  EXPECT_EQ(log.size(), 0u);

  const auto added = fx.catalog.Get(500);
  ASSERT_TRUE(added.has_value());
  EXPECT_EQ(added->attributes.sales, 42u);
  EXPECT_TRUE(added->on_market);
  EXPECT_TRUE(fx.images.Contains(MakeImageUrl(500, 0)));
  EXPECT_FALSE(fx.catalog.Get(1)->on_market);
}

TEST(FullIndexBuilderTest, RelistViaLogRestoresProduct) {
  Fixture fx;
  fx.Populate(10);
  MessageLog log;
  ProductUpdateMessage del;
  del.type = UpdateType::kRemoveProduct;
  del.product_id = 2;
  log.Append(del);
  ProductUpdateMessage relist;
  relist.type = UpdateType::kAddProduct;
  relist.product_id = 2;
  relist.category_id = fx.catalog.Get(2)->category;
  relist.image_urls = fx.catalog.Get(2)->image_urls;
  relist.attributes = {.sales = 9, .price_cents = 9, .praise = 9};
  log.Append(relist);

  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  builder.ApplyMessageLog(log);
  const auto record = fx.catalog.Get(2);
  EXPECT_TRUE(record->on_market);
  EXPECT_EQ(record->attributes.sales, 9u);
}

TEST(FullIndexBuilderTest, EmptyCatalogYieldsUsableQuantizer) {
  Fixture fx;  // no products
  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  auto quantizer = builder.TrainQuantizer();
  ASSERT_NE(quantizer, nullptr);
  EXPECT_GE(quantizer->num_clusters(), 1u);
  FullIndexReport report;
  auto index = builder.Build(quantizer, AcceptAllPartitionFilter(), &report);
  EXPECT_EQ(report.images_indexed, 0u);
  EXPECT_EQ(index->size(), 0u);
}

TEST(FullIndexBuilderTest, BuiltIndexServesQueries) {
  Fixture fx;
  fx.Populate(100);
  FullIndexBuilder builder(fx.catalog, fx.images, fx.features,
                           fx.BuilderConfig());
  auto quantizer = builder.TrainQuantizer();
  auto index = builder.Build(quantizer);
  // Query one known product.
  const auto record = fx.catalog.Get(17);
  ASSERT_TRUE(record.has_value());
  const auto query =
      fx.embedder.ExtractQuery(record->id, record->category, 1);
  const auto hits =
      index->Search(query, 5, {.nprobe = quantizer->num_clusters()});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].product_id, record->id);
}

}  // namespace
}  // namespace jdvs
