// Tests for the real-time indexer: the Figure 6 message dispatch, the
// re-listing reuse fast path, partition filtering, and counters.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/quantizer.h"
#include "common/hash.h"
#include "index/ivf_index.h"
#include "index/realtime_indexer.h"
#include "store/catalog.h"
#include "store/feature_db.h"

namespace jdvs {
namespace {

constexpr std::size_t kDim = 16;

struct Fixture {
  Fixture()
      : embedder({.dim = kDim, .num_categories = 8, .seed = 5}),
        features(embedder, ExtractionCostModel{.mean_micros = 0}),
        quantizer(MakeQuantizer()),
        index(quantizer),
        indexer(index, features) {}

  static std::shared_ptr<const CoarseQuantizer> MakeQuantizer() {
    // 8 centroids at the category prototypes, so class assignment is
    // meaningful.
    const SyntheticEmbedder e({.dim = kDim, .num_categories = 8, .seed = 5});
    std::vector<float> centroids;
    for (CategoryId c = 0; c < 8; ++c) {
      // Prototype approximated by a noiseless product point of a synthetic
      // product in that category.
      const auto f = e.ExtractQuery(100000 + c, c, 0);
      centroids.insert(centroids.end(), f.begin(), f.end());
    }
    return std::make_shared<CoarseQuantizer>(std::move(centroids), kDim);
  }

  ProductUpdateMessage Add(ProductId id, CategoryId category,
                           std::size_t images) {
    ProductUpdateMessage m;
    m.type = UpdateType::kAddProduct;
    m.product_id = id;
    m.category_id = category;
    m.attributes = {.sales = 1, .price_cents = 100, .praise = 0};
    for (std::size_t k = 0; k < images; ++k) {
      m.image_urls.push_back(MakeImageUrl(id, static_cast<std::uint32_t>(k)));
    }
    return m;
  }

  SyntheticEmbedder embedder;
  FeatureDb features;
  std::shared_ptr<const CoarseQuantizer> quantizer;
  IvfIndex index;
  RealTimeIndexer indexer;
};

TEST(RealTimeIndexerTest, AdditionCreatesSearchableEntries) {
  Fixture fx;
  fx.indexer.Apply(fx.Add(1, 2, 3));
  EXPECT_EQ(fx.index.size(), 3u);
  EXPECT_TRUE(fx.index.HasProduct(1));
  // Data freshness: immediately searchable.
  const auto query = fx.embedder.ExtractQuery(1, 2, 7);
  const auto hits = fx.index.Search(query, 3, {.nprobe = 8});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].product_id, 1u);

  const auto& counters = fx.indexer.counters();
  EXPECT_EQ(counters.additions, 1u);
  EXPECT_EQ(counters.images_added, 3u);
  EXPECT_EQ(counters.features_extracted, 3u);
  EXPECT_EQ(counters.features_reused, 0u);
}

TEST(RealTimeIndexerTest, DeletionInvalidatesAllImages) {
  Fixture fx;
  fx.indexer.Apply(fx.Add(1, 2, 3));
  ProductUpdateMessage del;
  del.type = UpdateType::kRemoveProduct;
  del.product_id = 1;
  fx.indexer.Apply(del);
  EXPECT_EQ(fx.indexer.counters().deletions, 1u);
  EXPECT_EQ(fx.indexer.counters().images_invalidated, 3u);
  const auto query = fx.embedder.ExtractQuery(1, 2, 7);
  EXPECT_TRUE(fx.index.Search(query, 3, {.nprobe = 8}).empty());
}

TEST(RealTimeIndexerTest, RelistingReusesIndexEntries) {
  Fixture fx;
  fx.indexer.Apply(fx.Add(1, 2, 3));
  ProductUpdateMessage del;
  del.type = UpdateType::kRemoveProduct;
  del.product_id = 1;
  fx.indexer.Apply(del);

  // Re-list: "we simply update its validity in the bitmap and reuse its
  // images' features" — no new entries, no extraction.
  fx.indexer.Apply(fx.Add(1, 2, 3));
  EXPECT_EQ(fx.index.size(), 3u);  // unchanged
  const auto& counters = fx.indexer.counters();
  EXPECT_EQ(counters.images_revalidated, 3u);
  EXPECT_EQ(counters.features_extracted, 3u);  // only the original ones
  const auto query = fx.embedder.ExtractQuery(1, 2, 7);
  EXPECT_FALSE(fx.index.Search(query, 3, {.nprobe = 8}).empty());
}

TEST(RealTimeIndexerTest, AdditionWithPrewarmedFeaturesCountsReuse) {
  Fixture fx;
  // Features already in the KV store (extracted in some earlier life).
  const auto msg = fx.Add(9, 1, 2);
  for (const auto& url : msg.image_urls) {
    fx.features.Preload(url, fx.embedder.Extract({url, 9, 1}));
  }
  fx.indexer.Apply(msg);
  EXPECT_EQ(fx.indexer.counters().features_reused, 2u);
  EXPECT_EQ(fx.indexer.counters().features_extracted, 0u);
  EXPECT_EQ(fx.index.size(), 2u);
}

TEST(RealTimeIndexerTest, AttributeUpdateTouchesAllProductImages) {
  Fixture fx;
  fx.indexer.Apply(fx.Add(1, 2, 3));
  ProductUpdateMessage upd;
  upd.type = UpdateType::kAttributeUpdate;
  upd.product_id = 1;
  upd.attributes = {.sales = 500, .price_cents = 2, .praise = 50};
  fx.indexer.Apply(upd);
  EXPECT_EQ(fx.indexer.counters().attribute_updates, 1u);
  EXPECT_EQ(fx.indexer.counters().entries_touched, 3u);
  const auto query = fx.embedder.ExtractQuery(1, 2, 7);
  const auto hits = fx.index.Search(query, 1, {.nprobe = 8});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].attributes.sales, 500u);
}

TEST(RealTimeIndexerTest, AttributeUpdateForUnknownProductIsNoop) {
  Fixture fx;
  ProductUpdateMessage upd;
  upd.type = UpdateType::kAttributeUpdate;
  upd.product_id = 777;
  fx.indexer.Apply(upd);
  EXPECT_EQ(fx.indexer.counters().attribute_updates, 1u);
  EXPECT_EQ(fx.indexer.counters().entries_touched, 0u);
}

TEST(RealTimeIndexerTest, PartitionFilterSkipsForeignImages) {
  Fixture fx;
  // Accept only URLs with even FNV hash.
  RealTimeIndexer filtered(fx.index, fx.features,
                           [](std::string_view url) {
                             return Fnv1a64(url) % 2 == 0;
                           });
  const auto msg = fx.Add(4, 3, 6);
  std::size_t expected = 0;
  for (const auto& url : msg.image_urls) {
    if (Fnv1a64(url) % 2 == 0) ++expected;
  }
  filtered.Apply(msg);
  EXPECT_EQ(fx.index.size(), expected);
  EXPECT_EQ(filtered.counters().images_added, expected);
}

TEST(RealTimeIndexerTest, LatencyRecordedPerMessage) {
  Fixture fx;
  fx.indexer.Apply(fx.Add(1, 2, 3));
  ProductUpdateMessage upd;
  upd.type = UpdateType::kAttributeUpdate;
  upd.product_id = 1;
  fx.indexer.Apply(upd);
  EXPECT_EQ(fx.indexer.latency_micros().Count(), 2u);
  fx.indexer.ResetStats();
  EXPECT_EQ(fx.indexer.latency_micros().Count(), 0u);
  EXPECT_EQ(fx.indexer.counters().TotalMessages(), 0u);
}

TEST(RealTimeIndexerTest, NewImagesOnExistingProductAreIndexed) {
  Fixture fx;
  fx.indexer.Apply(fx.Add(1, 2, 2));
  // Same product re-announced with one extra image.
  fx.indexer.Apply(fx.Add(1, 2, 3));
  EXPECT_EQ(fx.index.size(), 3u);
  EXPECT_EQ(fx.indexer.counters().images_revalidated, 2u);
  EXPECT_EQ(fx.indexer.counters().images_added, 3u);
}

TEST(RealTimeIndexerCountersTest, AddAccumulates) {
  RealTimeIndexerCounters a;
  a.additions = 2;
  a.images_added = 5;
  RealTimeIndexerCounters b;
  b.additions = 3;
  b.deletions = 1;
  a.Add(b);
  EXPECT_EQ(a.additions, 5u);
  EXPECT_EQ(a.deletions, 1u);
  EXPECT_EQ(a.images_added, 5u);
  EXPECT_EQ(a.TotalMessages(), 6u);
}

}  // namespace
}  // namespace jdvs
