// Tests for the per-partition IVF index: insertion, search, validity
// filtering, attribute updates, recall vs exhaustive scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "cluster/kmeans.h"
#include "common/rng.h"
#include "embedding/extractor.h"
#include "index/ivf_index.h"
#include "vecmath/distance.h"

namespace jdvs {
namespace {

constexpr std::size_t kDim = 16;

std::shared_ptr<const CoarseQuantizer> GridQuantizer() {
  // 4 well-separated centroids in 16-d: corners scaled.
  std::vector<float> centroids;
  Rng rng(17);
  for (int c = 0; c < 4; ++c) {
    for (std::size_t d = 0; d < kDim; ++d) {
      centroids.push_back(static_cast<float>(((c >> (d % 2)) & 1) * 10.0 +
                                             rng.NextGaussian() * 0.01));
    }
  }
  return std::make_shared<CoarseQuantizer>(std::move(centroids), kDim);
}

FeatureVector NearCentroid(const CoarseQuantizer& q, std::size_t c,
                           float jitter, std::uint64_t seed) {
  Rng rng(seed);
  FeatureVector v(q.Centroid(c).begin(), q.Centroid(c).end());
  for (float& x : v) x += static_cast<float>(rng.NextGaussian()) * jitter;
  return v;
}

ProductAttributes Attrs(std::uint64_t sales = 5) {
  return {.sales = sales, .price_cents = 1000, .praise = 2};
}

TEST(IvfIndexTest, AddAndFindExact) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  const FeatureVector f = NearCentroid(*quantizer, 0, 0.1f, 1);
  EXPECT_TRUE(index.Search(f, 3).empty());  // an empty index answers empty
  index.AddImage("jd://img/1/0", 1, 2, Attrs(), "jd://item/1", f);

  const auto hits = index.Search(f, 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].product_id, 1u);
  EXPECT_EQ(hits[0].image_url, "jd://img/1/0");
  EXPECT_EQ(hits[0].detail_url, "jd://item/1");
  EXPECT_EQ(hits[0].category, 2u);
  EXPECT_NEAR(hits[0].distance, 0.f, 1e-6);
}

TEST(IvfIndexTest, ResultsSortedByDistance) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  const FeatureVector probe = NearCentroid(*quantizer, 0, 0.0f, 0);
  for (int i = 0; i < 20; ++i) {
    index.AddImage("u" + std::to_string(i), i + 1, 0, Attrs(),
                   "", NearCentroid(*quantizer, 0, 0.5f, i + 10));
  }
  const auto hits = index.Search(probe, 10);
  ASSERT_EQ(hits.size(), 10u);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

TEST(IvfIndexTest, InvalidImagesExcludedFromSearch) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  const FeatureVector f = NearCentroid(*quantizer, 1, 0.1f, 2);
  index.AddImage("jd://img/5/0", 5, 0, Attrs(), "", f);
  ASSERT_EQ(index.Search(f, 1).size(), 1u);

  // Deletion: flip the bitmap (Figure 6); the image vanishes from results.
  EXPECT_EQ(index.SetProductValidity(5, false), 1u);
  EXPECT_TRUE(index.Search(f, 1).empty());
  EXPECT_FALSE(index.IsImageValid("jd://img/5/0"));

  // Re-listing brings it back (no re-insertion).
  EXPECT_EQ(index.SetProductValidity(5, true), 1u);
  ASSERT_EQ(index.Search(f, 1).size(), 1u);
  EXPECT_TRUE(index.IsImageValid("jd://img/5/0"));
}

TEST(IvfIndexTest, LateFilteringModeAlsoExcludesInvalid) {
  auto quantizer = GridQuantizer();
  IvfIndexConfig config;
  config.filter_invalid_during_scan = false;
  IvfIndex index(quantizer, config);
  const FeatureVector f = NearCentroid(*quantizer, 1, 0.1f, 2);
  index.AddImage("a", 5, 0, Attrs(), "", f);
  index.SetProductValidity(5, false);
  EXPECT_TRUE(index.Search(f, 1).empty());
}

TEST(IvfIndexTest, SetImageValidityTargetsOneImage) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  const FeatureVector f0 = NearCentroid(*quantizer, 0, 0.05f, 3);
  const FeatureVector f1 = NearCentroid(*quantizer, 0, 0.05f, 4);
  index.AddImage("p7-img0", 7, 0, Attrs(), "", f0);
  index.AddImage("p7-img1", 7, 0, Attrs(), "", f1);
  EXPECT_TRUE(index.SetImageValidity("p7-img0", false));
  EXPECT_FALSE(index.SetImageValidity("unknown", false));
  const auto hits = index.Search(f0, 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].image_url, "p7-img1");
}

TEST(IvfIndexTest, UpdateProductAttributesVisibleInResults) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  const FeatureVector f = NearCentroid(*quantizer, 2, 0.1f, 5);
  index.AddImage("a", 9, 0, Attrs(5), "old", f);
  EXPECT_EQ(index.UpdateProductAttributes(
                9, {.sales = 777, .price_cents = 1, .praise = 9}, "new-url"),
            1u);
  const auto hits = index.Search(f, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].attributes.sales, 777u);
  EXPECT_EQ(hits[0].detail_url, "new-url");
  EXPECT_EQ(index.UpdateProductAttributes(12345, Attrs(), ""), 0u);
}

TEST(IvfIndexTest, HasImageHasProduct) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  EXPECT_FALSE(index.HasImage("a"));
  EXPECT_FALSE(index.HasProduct(1));
  index.AddImage("a", 1, 0, Attrs(), "",
                 NearCentroid(*quantizer, 0, 0.1f, 6));
  EXPECT_TRUE(index.HasImage("a"));
  EXPECT_TRUE(index.HasProduct(1));
}

TEST(IvfIndexTest, StatsReflectState) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  // Two lists of 25: each outgrows its first 16-entry scan-storage chunk.
  for (int i = 0; i < 50; ++i) {
    index.AddImage("u" + std::to_string(i), i, 0, Attrs(), "",
                   NearCentroid(*quantizer, i % 2, 0.2f, i));
  }
  index.SetProductValidity(0, false);
  const IvfIndexStats stats = index.Stats();
  EXPECT_EQ(stats.total_images, 50u);
  EXPECT_EQ(stats.valid_images, 49u);
  EXPECT_EQ(stats.num_lists, 4u);
  EXPECT_GT(stats.largest_list, 0u);
  EXPECT_GT(stats.list_expansions, 0u);
}

TEST(IvfIndexTest, ExhaustiveSearchIsGroundTruth) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  Rng rng(8);
  std::vector<FeatureVector> all;
  for (int i = 0; i < 200; ++i) {
    auto f = NearCentroid(*quantizer, rng.Below(4), 1.0f, 100 + i);
    index.AddImage("u" + std::to_string(i), i, 0, Attrs(), "", f);
    all.push_back(std::move(f));
  }
  const FeatureVector probe = NearCentroid(*quantizer, 0, 0.5f, 999);
  const auto hits = index.SearchExhaustive(probe, 5);
  ASSERT_EQ(hits.size(), 5u);
  // Check optimality against a manual scan.
  std::vector<float> distances;
  for (const auto& f : all) distances.push_back(L2SquaredDistance(probe, f));
  std::sort(distances.begin(), distances.end());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(hits[i].distance, distances[i], 1e-5);
  }
}

// Recall@10 of the IVF search vs exhaustive scan improves with nprobe and is
// perfect when probing all lists.
class IvfRecallTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IvfRecallTest, RecallVsExhaustive) {
  const std::size_t nprobe = GetParam();
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    index.AddImage("u" + std::to_string(i), i, 0, Attrs(), "",
                   NearCentroid(*quantizer, rng.Below(4), 2.0f, 500 + i));
  }
  double recall_sum = 0.0;
  const int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    const FeatureVector probe =
        NearCentroid(*quantizer, rng.Below(4), 2.0f, 9000 + q);
    const auto approx = index.Search(probe, 10, nprobe);
    const auto exact = index.SearchExhaustive(probe, 10);
    int found = 0;
    for (const auto& e : exact) {
      for (const auto& a : approx) {
        if (a.image_id == e.image_id) {
          ++found;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(found) / 10.0;
  }
  const double recall = recall_sum / kQueries;
  if (nprobe >= 4) {
    EXPECT_NEAR(recall, 1.0, 1e-9);  // probing all lists == exhaustive
  } else {
    EXPECT_GT(recall, 0.4);  // single probe still finds the local cluster
  }
}

INSTANTIATE_TEST_SUITE_P(Nprobe, IvfRecallTest, ::testing::Values(1, 2, 4));

TEST(IvfIndexTest, CategoryFilterScopesResults) {
  auto quantizer = GridQuantizer();
  IvfIndex index(quantizer);
  // Two categories interleaved around centroid 0.
  for (int i = 0; i < 40; ++i) {
    index.AddImage("u" + std::to_string(i), i + 1,
                   static_cast<CategoryId>(i % 2), Attrs(), "",
                   NearCentroid(*quantizer, 0, 0.4f, 700 + i));
  }
  const FeatureVector probe = NearCentroid(*quantizer, 0, 0.1f, 999);
  const auto unfiltered = index.Search(probe, 20, 4);
  EXPECT_EQ(unfiltered.size(), 20u);

  const auto only_zero = index.Search(probe, 20, 4, /*category_filter=*/0);
  ASSERT_FALSE(only_zero.empty());
  for (const auto& hit : only_zero) EXPECT_EQ(hit.category, 0u);
  const auto only_one = index.Search(probe, 20, 4, /*category_filter=*/1);
  for (const auto& hit : only_one) EXPECT_EQ(hit.category, 1u);
  EXPECT_EQ(only_zero.size() + only_one.size(), 40u);

  // A category with no images returns nothing.
  EXPECT_TRUE(index.Search(probe, 20, 4, /*category_filter=*/7).empty());
}

TEST(IvfIndexTest, ConcurrentSearchDuringInserts) {
  auto quantizer = GridQuantizer();
  IvfIndexConfig config;
  config.nprobe = 4;
  IvfIndex index(quantizer, config);
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  const FeatureVector probe = NearCentroid(*quantizer, 0, 0.2f, 0);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto hits = index.Search(probe, 10);
        // Results must be sorted and contain no duplicate ids.
        for (std::size_t i = 1; i < hits.size(); ++i) {
          if (hits[i - 1].distance > hits[i].distance) errors.fetch_add(1);
        }
      }
    });
  }
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    index.AddImage("u" + std::to_string(i), i, 0, Attrs(), "",
                   NearCentroid(*quantizer, rng.Below(4), 0.5f, i));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(index.size(), 20000u);
}

}  // namespace
}  // namespace jdvs
