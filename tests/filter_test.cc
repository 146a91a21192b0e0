// Hybrid filtered search: FilterExpression semantics and wire format, the
// AttributeFilterIndex bitmap/column state, predicate pushdown into the IVF
// and IVF-PQ scans (exactness vs brute-force filtered ground truth across
// selectivity regimes), strategy selection, cache-key isolation, concurrent
// attribute updates during filtered scans, and cluster-level edge cases
// (zero-match filters, degradation, partition failover).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/quantizer.h"
#include "common/rng.h"
#include "filter/attribute_filter_index.h"
#include "filter/filter_expression.h"
#include "index/ivf_index.h"
#include "pq/codebook.h"
#include "search/cluster_builder.h"
#include "search/query_cache.h"
#include "store/catalog.h"
#include "vecmath/distance.h"
#include "workload/catalog_gen.h"
#include "workload/query_client.h"

namespace jdvs {
namespace {

// ---------------------------------------------------------------------------
// FilterExpression
// ---------------------------------------------------------------------------

TEST(FilterExpressionTest, BuildersAndMatches) {
  FilterExpression expr;
  expr.WithCategory(7)
      .WithMin(FilterField::kSales, 100)
      .WithMax(FilterField::kPriceCents, 5000);
  EXPECT_EQ(expr.size(), 3u);
  EXPECT_FALSE(expr.empty());

  const ProductAttributes good{.sales = 100, .price_cents = 5000, .praise = 0};
  EXPECT_TRUE(expr.Matches(7, good));
  EXPECT_FALSE(expr.Matches(8, good));  // wrong category
  EXPECT_FALSE(expr.Matches(
      7, ProductAttributes{.sales = 99, .price_cents = 100, .praise = 0}));
  EXPECT_FALSE(expr.Matches(
      7, ProductAttributes{.sales = 500, .price_cents = 5001, .praise = 0}));
}

TEST(FilterExpressionTest, EmptyExpressionMatchesEverything) {
  const FilterExpression expr;
  EXPECT_TRUE(expr.empty());
  EXPECT_TRUE(expr.Matches(0, {}));
  EXPECT_TRUE(expr.Matches(999, {.sales = ~std::uint64_t{0},
                                 .price_cents = 1,
                                 .praise = 3}));
}

TEST(FilterExpressionTest, CategoryRangeIsClosed) {
  FilterExpression expr;
  expr.WithCategoryRange(3, 5);
  EXPECT_FALSE(expr.Matches(2, {}));
  EXPECT_TRUE(expr.Matches(3, {}));
  EXPECT_TRUE(expr.Matches(5, {}));
  EXPECT_FALSE(expr.Matches(6, {}));
}

TEST(FilterExpressionTest, WithRangeThrowsOnInvertedBounds) {
  FilterExpression expr;
  EXPECT_THROW(expr.WithRange(FilterField::kSales, 10, 9),
               std::invalid_argument);
}

TEST(FilterExpressionTest, SerializeRoundTrip) {
  FilterExpression expr;
  expr.WithCategory(42)
      .WithRange(FilterField::kSales, 5, 500)
      .WithMax(FilterField::kPraise, 9);
  const FilterExpression decoded = FilterExpression::Deserialize(
      expr.Serialize());
  EXPECT_EQ(decoded, expr);
  EXPECT_EQ(decoded.Hash(), expr.Hash());

  const FilterExpression empty_decoded =
      FilterExpression::Deserialize(FilterExpression{}.Serialize());
  EXPECT_TRUE(empty_decoded.empty());
}

TEST(FilterExpressionTest, DeserializeRejectsMalformedBytes) {
  FilterExpression expr;
  expr.WithCategory(1);
  std::string wire = expr.Serialize();
  EXPECT_THROW(FilterExpression::Deserialize(
                   std::string_view(wire).substr(0, wire.size() - 1)),
               std::invalid_argument);  // truncated
  EXPECT_THROW(FilterExpression::Deserialize(""), std::invalid_argument);
  std::string bad_version = wire;
  bad_version[0] = 99;
  EXPECT_THROW(FilterExpression::Deserialize(bad_version),
               std::invalid_argument);
  std::string bad_field = wire;
  bad_field[3] = 17;  // field byte of the first predicate
  EXPECT_THROW(FilterExpression::Deserialize(bad_field),
               std::invalid_argument);
}

TEST(FilterExpressionTest, HashDistinguishesPredicates) {
  FilterExpression a;
  a.WithMax(FilterField::kPriceCents, 5000);
  FilterExpression b;
  b.WithMax(FilterField::kPriceCents, 4999);
  FilterExpression c;
  c.WithMax(FilterField::kPraise, 5000);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_NE(a.Hash(), FilterExpression{}.Hash());
  // Same predicates, same hash — and the empty hash is a stable seed.
  FilterExpression a2;
  a2.WithMax(FilterField::kPriceCents, 5000);
  EXPECT_EQ(a.Hash(), a2.Hash());
  EXPECT_EQ(FilterExpression{}.Hash(), FilterExpression{}.Hash());
}

TEST(FilterExpressionTest, ToStringNamesFieldsAndBounds) {
  FilterExpression expr;
  expr.WithCategory(7).WithMin(FilterField::kSales, 100);
  const std::string s = expr.ToString();
  EXPECT_NE(s.find("category"), std::string::npos);
  EXPECT_NE(s.find("sales"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AttributeFilterIndex
// ---------------------------------------------------------------------------

TEST(AttributeFilterIndexTest, AppendPopulatesBitmapsAndColumns) {
  AttributeFilterIndex filters;
  for (std::uint64_t i = 0; i < 100; ++i) {
    filters.Append(static_cast<CategoryId>(i % 4),
                   {.sales = i, .price_cents = i * 10, .praise = i % 7});
  }
  EXPECT_EQ(filters.size(), 100u);
  EXPECT_EQ(filters.num_categories(), 4u);
  const ValidityBitmap* cat0 = filters.CategoryBitmap(0);
  ASSERT_NE(cat0, nullptr);
  EXPECT_EQ(cat0->CountValid(), 25u);
  EXPECT_TRUE(cat0->Get(0));
  EXPECT_FALSE(cat0->Get(1));
  EXPECT_EQ(filters.CategoryBitmap(9), nullptr);
  EXPECT_EQ(filters.NumericAt(FilterField::kSales, 42), 42u);
  EXPECT_EQ(filters.NumericAt(FilterField::kPriceCents, 42), 420u);
  EXPECT_EQ(filters.NumericAt(FilterField::kPraise, 42), 0u);
}

TEST(AttributeFilterIndexTest, UpdateNumericIsVisibleAndChangesChecksum) {
  AttributeFilterIndex filters;
  filters.Append(1, {.sales = 5, .price_cents = 100, .praise = 0});
  const std::uint64_t before = filters.ColumnChecksum();
  filters.UpdateNumeric(0, {.sales = 77, .price_cents = 200, .praise = 3});
  EXPECT_EQ(filters.NumericAt(FilterField::kSales, 0), 77u);
  EXPECT_NE(filters.ColumnChecksum(), before);
  // Out-of-range update is a no-op, not a crash.
  filters.UpdateNumeric(999, {.sales = 1, .price_cents = 1, .praise = 1});
}

TEST(AttributeFilterIndexTest, MaterializeFoldsCategoryAndRanges) {
  AttributeFilterIndex filters;
  for (std::uint64_t i = 0; i < 200; ++i) {
    filters.Append(static_cast<CategoryId>(i % 2),
                   {.sales = i, .price_cents = 0, .praise = 0});
  }
  FilterExpression expr;
  expr.WithCategory(0).WithMin(FilterField::kSales, 100);
  const MaterializedFilter m =
      filters.Materialize(expr, nullptr);
  EXPECT_EQ(m.universe, 200u);
  EXPECT_EQ(m.matches, 50u);  // even locals >= 100
  for (LocalId local = 0; local < 200; ++local) {
    EXPECT_EQ(m.Test(local), local % 2 == 0 && local >= 100) << local;
  }
  EXPECT_NEAR(m.selectivity(), 0.25, 1e-9);
}

TEST(AttributeFilterIndexTest, MaterializeZeroMatches) {
  AttributeFilterIndex filters;
  for (std::uint64_t i = 0; i < 64; ++i) {
    filters.Append(3, {.sales = i, .price_cents = 0, .praise = 0});
  }
  FilterExpression expr;
  expr.WithCategory(9);  // never appended
  const MaterializedFilter m =
      filters.Materialize(expr, nullptr);
  EXPECT_EQ(m.matches, 0u);
  EXPECT_FALSE(m.Test(0));
}

TEST(AttributeFilterIndexTest, MaterializeFoldsValidityAndCategory) {
  AttributeFilterIndex filters;
  ValidityBitmap validity;
  for (std::uint64_t i = 0; i < 100; ++i) {
    filters.Append(static_cast<CategoryId>(i % 4),
                   {.sales = i, .price_cents = 0, .praise = 0});
    validity.Set(i, i % 5 != 0);  // every 5th image invalid
  }
  FilterExpression expr;
  expr.WithCategory(1).WithMin(FilterField::kSales, 0);
  const MaterializedFilter m = filters.Materialize(expr, &validity);
  for (LocalId local = 0; local < 100; ++local) {
    EXPECT_EQ(m.Test(local), local % 4 == 1 && local % 5 != 0) << local;
  }
}

TEST(AttributeFilterIndexTest, CategoryRangePredicateSweepsSlots) {
  AttributeFilterIndex filters;
  for (std::uint64_t i = 0; i < 90; ++i) {
    filters.Append(static_cast<CategoryId>(i % 9), {});
  }
  FilterExpression expr;
  expr.WithCategoryRange(2, 4);
  const MaterializedFilter m =
      filters.Materialize(expr, nullptr);
  EXPECT_EQ(m.matches, 30u);
  for (LocalId local = 0; local < 90; ++local) {
    EXPECT_EQ(m.Test(local), local % 9 >= 2 && local % 9 <= 4) << local;
  }
}

// ---------------------------------------------------------------------------
// IVF pushdown: exactness, strategy selection, batching, concurrency
// ---------------------------------------------------------------------------

constexpr std::size_t kDim = 16;

struct FlatFixture {
  struct Entry {
    std::string url;
    ProductId product;
    CategoryId category;
    ProductAttributes attributes;
    FeatureVector feature;
  };

  explicit FlatFixture(std::size_t images = 2000, std::size_t clusters = 16,
                       IvfIndexConfig config = {}) {
    Rng rng(123);
    std::vector<FeatureVector> training;
    for (std::size_t i = 0; i < 512; ++i) {
      FeatureVector v(kDim);
      for (float& x : v) x = static_cast<float>(rng.NextGaussian());
      training.push_back(std::move(v));
    }
    KMeansConfig kc;
    kc.num_clusters = clusters;
    quantizer = std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));
    index = std::make_unique<IvfIndex>(quantizer, config);
    for (std::size_t i = 0; i < images; ++i) {
      Entry e;
      e.url = MakeImageUrl(static_cast<ProductId>(i + 1), 0);
      e.product = static_cast<ProductId>(i + 1);
      e.category = static_cast<CategoryId>(i % 8);
      // Unique sales = insertion order gives exact selectivity control:
      // sales >= S matches exactly (images - S) entries.
      e.attributes = {.sales = i, .price_cents = (i * 7) % 10000,
                      .praise = i % 100};
      e.feature.resize(kDim);
      for (float& x : e.feature) x = static_cast<float>(rng.NextGaussian());
      index->AddImage(e.url, e.product, e.category, e.attributes, "",
                      e.feature);
      entries.push_back(std::move(e));
    }
  }

  FeatureVector Query(std::uint64_t seed) const {
    Rng rng(seed);
    FeatureVector q(kDim);
    for (float& x : q) x = static_cast<float>(rng.NextGaussian());
    return q;
  }

  // Independent brute-force oracle (does not go through the index at all).
  std::vector<std::string> BruteForceTopK(FeatureView query, std::size_t k,
                                          const FilterExpression& filter) const {
    std::vector<std::pair<float, const Entry*>> scored;
    for (const Entry& e : entries) {
      if (!filter.Matches(e.category, e.attributes)) continue;
      scored.emplace_back(
          static_cast<float>(L2SquaredDistance(query, e.feature)), &e);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::string> urls;
    for (std::size_t i = 0; i < std::min(k, scored.size()); ++i) {
      urls.push_back(scored[i].second->url);
    }
    return urls;
  }

  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::unique_ptr<IvfIndex> index;
  std::vector<Entry> entries;
};

std::set<std::string> UrlSet(const std::vector<SearchHit>& hits) {
  std::set<std::string> urls;
  for (const auto& h : hits) urls.insert(h.image_url);
  return urls;
}

// The acceptance property: with every list probed, pushdown results are
// exactly the brute-force filtered top-k, at ~50%, ~5% and ~0.1%
// selectivity. Also cross-checks the index's own filtered exhaustive oracle.
TEST(IvfFilterTest, PushdownExactAcrossSelectivityRegimes) {
  FlatFixture fx;
  const std::size_t n = fx.entries.size();
  const std::size_t all_lists = fx.quantizer->num_clusters();
  const struct {
    std::uint64_t min_sales;
    FilterScanStats::Strategy expect;
  } regimes[] = {
      {n / 2, FilterScanStats::Strategy::kPost},        // ~50%
      {n - n / 20, FilterScanStats::Strategy::kPre},    // ~5%
      {n - 2, FilterScanStats::Strategy::kPre},         // ~0.1%
  };
  for (const auto& regime : regimes) {
    FilterExpression filter;
    filter.WithMin(FilterField::kSales, regime.min_sales);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const FeatureVector q = fx.Query(seed);
      FilterScanStats stats;
      const auto hits = fx.index->Search(
          q, 10,
          {.nprobe = all_lists, .filter = &filter, .filter_stats = &stats});
      EXPECT_EQ(stats.strategy, regime.expect)
          << "min_sales=" << regime.min_sales;
      const auto oracle = fx.BruteForceTopK(q, 10, filter);
      EXPECT_EQ(UrlSet(hits),
                std::set<std::string>(oracle.begin(), oracle.end()))
          << "min_sales=" << regime.min_sales << " seed=" << seed;
      // The index's own filtered exhaustive scan is the same ground truth.
      const auto exhaustive = fx.index->SearchExhaustive(q, 10, filter);
      EXPECT_EQ(UrlSet(hits), UrlSet(exhaustive));
      // Every hit satisfies the predicates.
      for (const auto& h : hits) {
        EXPECT_TRUE(filter.Matches(h.category, h.attributes)) << h.image_url;
      }
    }
  }
}

TEST(IvfFilterTest, DefaultNprobeHitsSatisfyPredicates) {
  IvfIndexConfig config;
  config.nprobe = 4;
  FlatFixture fx(2000, 16, config);
  FilterExpression filter;
  filter.WithCategory(3).WithMax(FilterField::kPriceCents, 7000);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto hits =
        fx.index->Search(fx.Query(seed), 10, {.filter = &filter});
    for (const auto& h : hits) {
      EXPECT_TRUE(filter.Matches(h.category, h.attributes)) << h.image_url;
    }
  }
}

TEST(IvfFilterTest, ExtremeSelectivityWidensNprobeAndSkipsBlocks) {
  IvfIndexConfig config;
  config.nprobe = 2;
  FlatFixture fx(2000, 16, config);
  FilterExpression filter;
  filter.WithMin(FilterField::kSales, fx.entries.size() - 2);  // 2 of 2000
  FilterScanStats stats;
  const auto hits =
      fx.index->Search(fx.Query(9), 10,
                       {.filter = &filter, .filter_stats = &stats});
  EXPECT_TRUE(stats.widened_nprobe);
  EXPECT_EQ(stats.matches, 2u);
  EXPECT_EQ(stats.selectivity_bp, 10u);  // 0.1% = 10 basis points
  EXPECT_GT(stats.blocks_skipped, 0u);   // most sub-blocks wholly dead
  for (const auto& h : hits) {
    EXPECT_TRUE(filter.Matches(h.category, h.attributes));
  }
}

TEST(IvfFilterTest, ZeroMatchFilterIsEmptyButSuccessful) {
  FlatFixture fx(500, 8);
  FilterExpression filter;
  filter.WithMin(FilterField::kSales, 1u << 30);  // matches nothing
  FilterScanStats stats;
  const auto hits =
      fx.index->Search(fx.Query(1), 10,
                       {.filter = &filter, .filter_stats = &stats});
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.matches, 0u);
  EXPECT_EQ(stats.blocks_scanned, 0u);  // scan skipped entirely
}

TEST(IvfFilterTest, EmptyFilterFallsBackToLegacySearch) {
  FlatFixture fx(500, 8);
  const FeatureVector q = fx.Query(4);
  const FilterExpression empty;
  const auto filtered = fx.index->Search(q, 10, {.filter = &empty});
  const auto unfiltered = fx.index->Search(q, 10);
  EXPECT_EQ(UrlSet(filtered), UrlSet(unfiltered));
}

TEST(IvfFilterTest, CategoryTermConjoinsWithRange) {
  FlatFixture fx(1000, 8);
  FilterExpression filter;
  filter.WithCategory(5).WithMin(FilterField::kSales, 100);
  const auto hits = fx.index->Search(
      fx.Query(2), 10,
      {.nprobe = fx.quantizer->num_clusters(), .filter = &filter});
  ASSERT_FALSE(hits.empty());
  for (const auto& h : hits) {
    EXPECT_EQ(h.category, 5u);
    EXPECT_GE(h.attributes.sales, 100u);
  }
}

// The naive over-fetch + post-filter baseline the pushdown is measured
// against.
TEST(IvfFilterTest, BaseClassFallbackFiltersCorrectly) {
  FlatFixture fx(800, 8);
  FilterExpression filter;
  filter.WithCategory(1);
  FilterScanStats stats;
  const auto hits = PostFilteredSearch(
      *fx.index, fx.Query(5), 10, fx.quantizer->num_clusters(), filter,
      &stats);
  EXPECT_EQ(stats.strategy, FilterScanStats::Strategy::kFallback);
  ASSERT_EQ(hits.size(), 10u);
  const auto oracle = fx.BruteForceTopK(fx.Query(5), 10, filter);
  EXPECT_EQ(UrlSet(hits), std::set<std::string>(oracle.begin(), oracle.end()));
}

TEST(IvfFilterTest, NumericUpdatesMoveImagesAcrossTheFilterBoundary) {
  FlatFixture fx(500, 8);
  FilterExpression filter;
  filter.WithMin(FilterField::kSales, 1u << 20);
  const FeatureVector q(fx.entries[7].feature);
  EXPECT_TRUE(fx.index
                  ->Search(q, 5,
                           {.nprobe = fx.quantizer->num_clusters(),
                            .filter = &filter})
                  .empty());
  // Promote product 8 (entry 7) above the threshold: it must now be found.
  fx.index->UpdateProductAttributes(
      8, {.sales = 1u << 21, .price_cents = 1, .praise = 1});
  const auto hits = fx.index->Search(
      q, 5, {.nprobe = fx.quantizer->num_clusters(), .filter = &filter});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].product_id, 8u);
}

// TSan target: one writer mutating numeric attributes and validity while
// readers run filtered searches. Correctness bar during the race: no data
// race, k respected, and categories (immutable) always honored.
TEST(IvfFilterTest, ConcurrentAttributeUpdatesDuringFilteredSearch) {
  FlatFixture fx(1000, 8);
  FilterExpression filter;
  filter.WithCategory(2).WithMin(FilterField::kSales, 100);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(77);
    std::uint64_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto pid = static_cast<ProductId>(1 + rng.Below(1000));
      fx.index->UpdateProductAttributes(
          pid, {.sales = rng.Below(2000), .price_cents = rng.Below(10000),
                .praise = rng.Below(50)});
      fx.index->SetProductValidity(pid, ++round % 3 != 0);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        const auto hits =
            fx.index->Search(fx.Query(t * 1000 + i), 5, {.filter = &filter});
        EXPECT_LE(hits.size(), 5u);
        for (const auto& h : hits) EXPECT_EQ(h.category, 2u);
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ---------------------------------------------------------------------------
// IVF-PQ pushdown
// ---------------------------------------------------------------------------

struct PqFilterFixture {
  PqFilterFixture() {
    Rng rng(321);
    std::vector<FeatureVector> training;
    for (std::size_t i = 0; i < 1024; ++i) {
      FeatureVector v(kDim);
      for (float& x : v) x = static_cast<float>(rng.NextGaussian());
      training.push_back(std::move(v));
    }
    KMeansConfig kc;
    kc.num_clusters = 16;
    quantizer = std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));
    ProductQuantizerConfig pc;
    pc.num_subspaces = 8;
    pc.codebook_size = 64;
    pq = std::make_shared<ProductQuantizer>(
        ProductQuantizer::Train(training, pc));
  }

  std::unique_ptr<IvfIndex> Build(std::size_t images,
                                  IvfIndexConfig config = {}) {
    auto index = std::make_unique<IvfIndex>(quantizer, pq, config);
    Rng rng(55);
    features.clear();
    for (std::size_t i = 0; i < images; ++i) {
      FeatureVector v(kDim);
      for (float& x : v) x = static_cast<float>(rng.NextGaussian());
      index->AddImage(MakeImageUrl(static_cast<ProductId>(i + 1), 0),
                      static_cast<ProductId>(i + 1),
                      static_cast<CategoryId>(i % 8),
                      {.sales = i, .price_cents = (i * 7) % 10000,
                       .praise = i % 100},
                      "", v);
      features.push_back(std::move(v));
    }
    return index;
  }

  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::shared_ptr<const ProductQuantizer> pq;
  std::vector<FeatureVector> features;
};

TEST(IvfPqFilterTest, HitsSatisfyPredicatesAcrossSelectivities) {
  PqFilterFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;
  const auto index = fx.Build(2000, config);
  const std::uint64_t thresholds[] = {1000, 1900, 1998};  // 50% / 5% / 0.1%
  Rng rng(9);
  for (const std::uint64_t min_sales : thresholds) {
    FilterExpression filter;
    filter.WithMin(FilterField::kSales, min_sales);
    for (int qi = 0; qi < 10; ++qi) {
      FeatureVector q(kDim);
      for (float& x : q) x = static_cast<float>(rng.NextGaussian());
      FilterScanStats stats;
      const auto hits =
          index->Search(q, 10, {.filter = &filter, .filter_stats = &stats});
      EXPECT_NE(stats.strategy, FilterScanStats::Strategy::kNone);
      for (const auto& h : hits) {
        EXPECT_GE(h.attributes.sales, min_sales) << h.image_url;
      }
      // With every list probed the candidate set is complete, so the hit
      // count must reach min(k, matching population).
      const auto full = index->Search(q, 10, {.nprobe = 16, .filter = &filter});
      EXPECT_EQ(full.size(), std::min<std::size_t>(10, 2000 - min_sales));
      for (const auto& h : full) {
        EXPECT_GE(h.attributes.sales, min_sales);
      }
    }
  }
}

TEST(IvfPqFilterTest, RerankPreservesPredicates) {
  PqFilterFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;
  config.rerank_candidates = 50;  // IVFADC+R: exact re-rank of the shortlist
  const auto index = fx.Build(1000, config);
  FilterExpression filter;
  filter.WithCategory(4).WithMin(FilterField::kSales, 200);
  Rng rng(13);
  for (int qi = 0; qi < 10; ++qi) {
    FeatureVector q(kDim);
    for (float& x : q) x = static_cast<float>(rng.NextGaussian());
    for (const auto& h : index->Search(q, 10, {.filter = &filter})) {
      EXPECT_EQ(h.category, 4u);
      EXPECT_GE(h.attributes.sales, 200u);
    }
  }
}

TEST(IvfPqFilterTest, ZeroMatchIsEmptyButSuccessful) {
  PqFilterFixture fx;
  const auto index = fx.Build(500);
  FilterExpression filter;
  filter.WithMin(FilterField::kPraise, 1u << 20);
  FilterScanStats stats;
  FeatureVector q(kDim, 0.5f);
  EXPECT_TRUE(
      index->Search(q, 10, {.filter = &filter, .filter_stats = &stats})
          .empty());
  EXPECT_EQ(stats.matches, 0u);
}

// ---------------------------------------------------------------------------
// Query cache: the filter is part of the key
// ---------------------------------------------------------------------------

TEST(QueryCacheFilterTest, QueriesDifferingOnlyInPredicateNeverShareEntries) {
  QueryCache cache(kDim);
  const FeatureVector feature(kDim, 0.25f);
  const FeatureView view(feature.data(), feature.size());
  FilterExpression cheap;
  cheap.WithMax(FilterField::kPriceCents, 5000);
  FilterExpression cheaper;
  cheaper.WithMax(FilterField::kPriceCents, 4999);

  const auto key_cheap = cache.KeyFor(view, 10, 4, cheap);
  const auto key_cheaper = cache.KeyFor(view, 10, 4, cheaper);
  const auto key_unfiltered = cache.KeyFor(view, 10, 4);
  EXPECT_NE(key_cheap, key_cheaper);
  EXPECT_NE(key_cheap, key_unfiltered);

  QueryResponse response;
  SearchHit hit;
  hit.product_id = 42;
  response.results.push_back({hit, 1.0});
  cache.Insert(key_cheap, 0, response);
  EXPECT_TRUE(cache.Lookup(key_cheap, 0).has_value());
  EXPECT_FALSE(cache.Lookup(key_cheaper, 0).has_value());
  EXPECT_FALSE(cache.Lookup(key_unfiltered, 0).has_value());
}

TEST(QueryCacheFilterTest, KeyIsDeterministicForEqualFilters) {
  QueryCache cache(kDim);
  const FeatureVector feature(kDim, 0.5f);
  const FeatureView view(feature.data(), feature.size());
  FilterExpression a;
  a.WithCategory(3).WithMin(FilterField::kSales, 10);
  FilterExpression b;
  b.WithCategory(3).WithMin(FilterField::kSales, 10);
  EXPECT_EQ(cache.KeyFor(view, 10, 4, a), cache.KeyFor(view, 10, 4, b));
}

// ---------------------------------------------------------------------------
// Cluster mode: hybrid queries end to end
// ---------------------------------------------------------------------------

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_partitions = 4;
  config.replicas_per_partition = 1;
  config.num_brokers = 2;
  config.num_blenders = 1;
  config.searcher_threads = 1;
  config.broker_threads = 2;
  config.blender_threads = 2;
  config.embedder = {.dim = 16, .num_categories = 8, .seed = 5};
  config.detector = {.num_categories = 8, .top1_accuracy = 1.0};
  config.extraction = {.mean_micros = 0};
  config.kmeans.num_clusters = 8;
  config.training_sample = 512;
  config.ivf.nprobe = 8;
  config.build_threads = 4;
  return config;
}

std::unique_ptr<VisualSearchCluster> MakeCluster(
    ClusterConfig config = SmallConfig(), std::size_t products = 200) {
  auto cluster = std::make_unique<VisualSearchCluster>(config);
  CatalogGenConfig cg;
  cg.num_products = products;
  cg.num_categories = config.embedder.num_categories;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();
  return cluster;
}

QueryImage QueryFor(VisualSearchCluster& cluster, ProductId id,
                    std::uint64_t seed = 1) {
  const auto record = cluster.catalog().Get(id);
  EXPECT_TRUE(record.has_value());
  return QueryImage{id, record->category, seed};
}

TEST(ClusterFilterTest, HybridQueryReturnsOnlyMatchingResults) {
  auto cluster = MakeCluster();
  QueryOptions options;
  options.filter.WithMax(FilterField::kPriceCents, 8000);
  int answered = 0;
  for (int q = 0; q < 10; ++q) {
    const ProductId target = 1 + (q * 13) % 200;
    const auto response =
        cluster->Query(QueryFor(*cluster, target, q), options);
    for (const auto& r : response.results) {
      EXPECT_TRUE(options.filter.Matches(r.hit.category, r.hit.attributes))
          << r.hit.image_url;
    }
    if (!response.results.empty()) ++answered;
  }
  EXPECT_GT(answered, 0);
  // Observability landed: the searcher recorded filter stage time, a
  // selectivity sample and a strategy decision for the hybrid queries.
  const auto& registry = cluster->registry();
  const auto* stage = registry.FindHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "searcher_filter"));
  ASSERT_NE(stage, nullptr);
  EXPECT_GT(stage->Count(), 0u);
  const auto* selectivity =
      registry.FindHistogram("jdvs_filter_selectivity_bp");
  ASSERT_NE(selectivity, nullptr);
  EXPECT_GT(selectivity->Count(), 0u);
  const auto* pre = registry.FindCounter(
      obs::Labeled("jdvs_filter_strategy_total", "strategy", "pre"));
  const auto* post = registry.FindCounter(
      obs::Labeled("jdvs_filter_strategy_total", "strategy", "post"));
  const std::uint64_t strategies =
      (pre != nullptr ? pre->Value() : 0) +
      (post != nullptr ? post->Value() : 0);
  EXPECT_GT(strategies, 0u);
}

TEST(ClusterFilterTest, ZeroMatchFilterIsEmptyButSuccessful) {
  auto cluster = MakeCluster();
  QueryOptions options;
  options.filter.WithMin(FilterField::kSales, ~std::uint64_t{0} - 1);
  const auto response = cluster->Query(QueryFor(*cluster, 1, 1), options);
  EXPECT_TRUE(response.results.empty());
  EXPECT_FALSE(response.degraded);  // every partition answered, none failed
  EXPECT_EQ(response.broker_failures, 0u);
}

TEST(ClusterFilterTest, FilterEliminatingProbedListsIsEmptyButSuccessful) {
  auto cluster = MakeCluster();
  // A filter that keeps a handful of images alive cluster-wide: with tight
  // nprobe the probed lists of most queries contain none of them. The query
  // must still succeed (possibly empty), never error or report degradation.
  QueryOptions options;
  options.nprobe = 1;
  options.filter.WithCategoryRange(2, 2).WithMin(FilterField::kSales, 1);
  for (int q = 0; q < 10; ++q) {
    const auto response =
        cluster->Query(QueryFor(*cluster, 1 + q * 17, q), options);
    EXPECT_FALSE(response.degraded);
    for (const auto& r : response.results) {
      EXPECT_TRUE(options.filter.Matches(r.hit.category, r.hit.attributes));
    }
  }
}

TEST(ClusterFilterTest, DegradedEffortNeverViolatesTheFilter) {
  ClusterConfig config = SmallConfig();
  // Every window overloaded (p99 threshold 1us): the controller ratchets to
  // full degradation and stays, so hybrid queries run with shrunk nprobe
  // and no re-ranking — the filter contract must survive both.
  config.load_control.p99_degrade_micros = 1;
  config.load_control.window_micros = 1'000;
  config.load_control.min_window_samples = 1;
  auto cluster = MakeCluster(config);
  QueryOptions options;
  options.filter.WithMax(FilterField::kPriceCents, 8000);
  int degraded_answers = 0;
  for (int q = 0; q < 50; ++q) {
    const auto response =
        cluster->Query(QueryFor(*cluster, 1 + (q % 200), q), options);
    for (const auto& r : response.results) {
      EXPECT_TRUE(options.filter.Matches(r.hit.category, r.hit.attributes))
          << "degradation level " << response.degradation_level;
    }
    if (response.degradation_level > 0 && !response.results.empty()) {
      ++degraded_answers;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(1'500));
  }
  EXPECT_GT(degraded_answers, 0) << "ladder never engaged under load";
}

TEST(ClusterFilterTest, PartitionFailoverReturnsFilteredPartialResults) {
  auto cluster = MakeCluster();
  // Single replica per partition: failing partition 0's searcher leaves the
  // broker nothing to fail over to, so answers are partial — and every hit
  // that does come back must still satisfy the predicates.
  cluster->searcher(0).node().set_failed(true);
  QueryOptions options;
  options.filter.WithMax(FilterField::kPriceCents, 20000);
  bool saw_degraded = false;
  bool saw_results = false;
  for (int q = 0; q < 10; ++q) {
    const auto response =
        cluster->Query(QueryFor(*cluster, 1 + q * 19, q), options);
    saw_degraded = saw_degraded || response.degraded;
    saw_results = saw_results || !response.results.empty();
    for (const auto& r : response.results) {
      EXPECT_TRUE(options.filter.Matches(r.hit.category, r.hit.attributes));
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_results);
  cluster->searcher(0).node().set_failed(false);
}

}  // namespace
}  // namespace jdvs
