// Tests for the batched query path: IvfIndex::SearchBatch (both list codecs)
// must be result-identical to per-query Search (micro-batching is a throughput
// optimization, never a semantics change), ADC distances must match the
// decode-based asymmetric distance, and the in-searcher micro-batching must
// deliver correct results under concurrency, honor tight deadlines by
// running solo, and record the batch-size histogram.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "cluster/kmeans.h"
#include "common/clock.h"
#include "embedding/extractor.h"
#include "index/full_index_builder.h"
#include "index/ivf_index.h"
#include "obs/registry.h"
#include "vecmath/distance.h"
#include "qos/deadline.h"
#include "search/searcher.h"
#include "store/feature_db.h"
#include "vecmath/kernels.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

// Small trained corpus shared by the index-level equivalence tests.
struct BatchFixture {
  BatchFixture() : embedder({.dim = 32, .num_categories = 8, .seed = 21}) {
    std::vector<FeatureVector> training;
    for (int i = 0; i < 600; ++i) {
      const ProductId pid = 1 + (i % 150);
      training.push_back(embedder.Extract(
          {MakeImageUrl(pid, static_cast<std::uint32_t>(i / 150)), pid,
           static_cast<CategoryId>(pid % 8)}));
    }
    KMeansConfig kc;
    kc.num_clusters = 12;
    quantizer = std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));
    ProductQuantizerConfig pc;
    pc.num_subspaces = 8;
    pc.codebook_size = 64;
    pq = std::make_shared<ProductQuantizer>(
        ProductQuantizer::Train(training, pc));
  }

  template <typename Index>
  void Fill(Index& index, std::size_t products, std::size_t images) {
    const ProductAttributes attrs{.sales = 5, .price_cents = 100, .praise = 1};
    for (ProductId pid = 1; pid <= products; ++pid) {
      for (std::uint32_t k = 0; k < images; ++k) {
        const std::string url = MakeImageUrl(pid, k);
        const CategoryId category = static_cast<CategoryId>(pid % 8);
        index.AddImage(url, pid, category, attrs, "",
                       embedder.Extract({url, pid, category}));
      }
    }
  }

  // A per-query workload mixing k, nprobe and category filters.
  std::vector<FeatureVector> MakeQueries(std::size_t count) {
    std::vector<FeatureVector> queries;
    for (std::size_t i = 0; i < count; ++i) {
      const ProductId pid = 1 + (i % 150);
      queries.push_back(embedder.ExtractQuery(
          pid, static_cast<CategoryId>(pid % 8), /*seed=*/i + 1));
    }
    return queries;
  }

  SyntheticEmbedder embedder;
  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::shared_ptr<const ProductQuantizer> pq;
};

void ExpectSameHits(const std::vector<SearchHit>& batched,
                    const std::vector<SearchHit>& solo) {
  ASSERT_EQ(batched.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(batched[i].image_id, solo[i].image_id);
    EXPECT_EQ(batched[i].distance, solo[i].distance);  // bit-identical
    EXPECT_EQ(batched[i].image_url, solo[i].image_url);
  }
}

TEST(IvfSearchBatchTest, MatchesPerQuerySearch) {
  BatchFixture fx;
  IvfIndexConfig config;
  config.nprobe = 3;
  IvfIndex index(fx.quantizer, config);
  fx.Fill(index, 120, 2);

  const auto queries = fx.MakeQueries(17);
  std::vector<IvfBatchQuery> batch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    IvfBatchQuery q;
    q.query = FeatureView(queries[i].data(), queries[i].size());
    q.k = 3 + i % 5;
    q.nprobe = (i % 3 == 0) ? 0 : 1 + i % 6;  // 0 = index default
    q.category_filter = (i % 4 == 0)
                            ? static_cast<CategoryId>(1 + i % 8)
                            : kNoCategoryFilter;
    batch.push_back(q);
  }

  const auto results = index.SearchBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto solo = index.Search(batch[i].query, batch[i].k, batch[i].nprobe,
                                   batch[i].category_filter);
    ExpectSameHits(results[i], solo);
  }
}

TEST(IvfSearchBatchTest, EmptyBatchAndEmptyIndex) {
  BatchFixture fx;
  IvfIndex index(fx.quantizer, IvfIndexConfig{});
  EXPECT_TRUE(index.SearchBatch({}).empty());

  const auto queries = fx.MakeQueries(2);
  std::vector<IvfBatchQuery> batch(2);
  batch[0].query = FeatureView(queries[0].data(), queries[0].size());
  batch[1].query = FeatureView(queries[1].data(), queries[1].size());
  const auto results = index.SearchBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].empty());
  EXPECT_TRUE(results[1].empty());
}

TEST(IvfPqSearchBatchTest, MatchesPerQuerySearch) {
  BatchFixture fx;
  IvfIndexConfig config;
  config.nprobe = 4;
  config.rerank_candidates = 12;  // exercise the rerank path in batch form
  IvfIndex index(fx.quantizer, fx.pq, config);
  fx.Fill(index, 120, 2);

  const auto queries = fx.MakeQueries(13);
  std::vector<IvfBatchQuery> batch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    IvfBatchQuery q;
    q.query = FeatureView(queries[i].data(), queries[i].size());
    q.k = 2 + i % 4;
    q.nprobe = (i % 2 == 0) ? 0 : 2 + i % 5;
    batch.push_back(q);
  }

  const auto results = index.SearchBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto solo = index.Search(batch[i].query, batch[i].k, batch[i].nprobe,
                                   batch[i].category_filter);
    ExpectSameHits(results[i], solo);
    // The rerank ran: every distance is the exact one to the raw feature,
    // not its ADC approximation.
    for (const SearchHit& hit : results[i]) {
      const CategoryId category = static_cast<CategoryId>(hit.product_id % 8);
      const FeatureVector feature =
          fx.embedder.Extract({hit.image_url, hit.product_id, category});
      EXPECT_EQ(hit.distance, L2SquaredDistance(batch[i].query, feature));
    }
  }
}

TEST(IvfPqSearchBatchTest, AdcDistancesMatchDecodedDistances) {
  BatchFixture fx;
  IvfIndexConfig config;
  config.nprobe = 12;  // probe everything: the scan covers the whole corpus
  IvfIndex index(fx.quantizer, fx.pq, config);
  fx.Fill(index, 60, 1);

  for (ProductId pid = 1; pid <= 10; ++pid) {
    const auto query = fx.embedder.ExtractQuery(
        pid, static_cast<CategoryId>(pid % 8), /*seed=*/pid);
    for (const auto& hit : index.Search(query, 5)) {
      // The stored code is Encode(feature) and encoding is deterministic, so
      // the ADC distance the scan produced must match the asymmetric
      // distance to the reconstruction, up to table-vs-decode FP rounding.
      const CategoryId category = static_cast<CategoryId>(hit.product_id % 8);
      const FeatureVector feature = fx.embedder.Extract(
          {hit.image_url, hit.product_id, category});
      const float exact =
          fx.pq->AsymmetricDistance(query, fx.pq->Encode(feature));
      EXPECT_NEAR(hit.distance, exact, 1e-3f * (1.f + exact));
    }
  }
}

// ---- In-searcher micro-batching ----

struct SearcherFixture {
  explicit SearcherFixture(Searcher::Config config)
      : embedder({.dim = 16, .num_categories = 6, .seed = 3}),
        features(embedder, ExtractionCostModel{.mean_micros = 0}) {
    CatalogGenConfig cg;
    cg.num_products = 60;
    cg.num_categories = 6;
    GenerateCatalog(cg, catalog, images);

    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 6;
    fc.index_config.nprobe = 6;
    FullIndexBuilder builder(catalog, images, features, fc);
    const auto quantizer = builder.TrainQuantizer();
    searcher = std::make_unique<Searcher>("s-batch", config, features,
                                          AcceptAllPartitionFilter());
    searcher->InstallIndex(builder.Build(quantizer, AcceptAllPartitionFilter()));
  }

  FeatureVector Query(std::size_t i) {
    const ProductId pid = 1 + (i % 60);
    const auto record = catalog.Get(pid);
    return embedder.ExtractQuery(pid, record->category, /*seed=*/i + 1);
  }

  SyntheticEmbedder embedder;
  ProductCatalog catalog;
  ImageStore images;
  FeatureDb features;
  std::unique_ptr<Searcher> searcher;
};

TEST(SearcherBatchingTest, ConcurrentAsyncMatchesSoloSearch) {
  Searcher::Config config;
  config.threads = 4;
  config.max_batch_queries = 4;
  config.batch_window_micros = 500;
  SearcherFixture fx(config);

  constexpr std::size_t kQueries = 24;
  std::vector<FeatureVector> queries;
  for (std::size_t i = 0; i < kQueries; ++i) queries.push_back(fx.Query(i));

  // Dispatch everything before joining anything, so scans overlap and the
  // batching path engages.
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (std::size_t i = 0; i < kQueries; ++i) {
    futures.push_back(fx.searcher->SearchAsync(queries[i], /*k=*/5));
  }
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto batched = futures[i].get();
    const auto solo = fx.searcher->SearchLocal(queries[i], /*k=*/5);
    ExpectSameHits(batched, solo);
  }
}

TEST(SearcherBatchingTest, TightDeadlineRunsSoloAndCompletes) {
  Searcher::Config config;
  config.threads = 4;
  config.max_batch_queries = 8;
  // A pathological window: any query that waited it out would blow a
  // 20 ms budget (window*2 > remaining), so deadlined queries must bypass
  // the batch entirely and still answer in time.
  config.batch_window_micros = 1'000'000;
  SearcherFixture fx(config);

  std::vector<FeatureVector> queries;
  for (std::size_t i = 0; i < 8; ++i) queries.push_back(fx.Query(i));

  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto deadline =
        qos::Deadline::FromBudget(MonotonicClock::Instance(), 20'000);
    futures.push_back(fx.searcher->SearchAsync(queries[i], /*k=*/5,
                                               /*nprobe=*/0, kNoCategoryFilter,
                                               FilterExpression{}, deadline));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    const auto batched = futures[i].get();  // must not hang on the window
    ExpectSameHits(batched, fx.searcher->SearchLocal(queries[i], /*k=*/5));
  }
}

TEST(SearcherBatchingTest, DisabledBatchingStillAnswers) {
  Searcher::Config config;
  config.max_batch_queries = 1;  // < 2 disables grouping entirely
  SearcherFixture fx(config);
  const auto query = fx.Query(0);
  const auto hits = fx.searcher->SearchAsync(query, /*k=*/5).get();
  ExpectSameHits(hits, fx.searcher->SearchLocal(query, /*k=*/5));
}

TEST(SearcherBatchingTest, RecordsBatchSizeHistogramAndDispatchTier) {
  obs::Registry registry;
  Searcher::Config config;
  config.threads = 4;
  config.registry = &registry;
  SearcherFixture fx(config);

  std::vector<std::future<std::vector<SearchHit>>> futures;
  std::vector<FeatureVector> queries;
  for (std::size_t i = 0; i < 12; ++i) queries.push_back(fx.Query(i));
  for (std::size_t i = 0; i < 12; ++i) {
    futures.push_back(fx.searcher->SearchAsync(queries[i], /*k=*/5));
  }
  for (auto& f : futures) f.get();

  Histogram& sizes = registry.GetHistogram(
      obs::Labeled("jdvs_searcher_batch_size", "searcher", "s-batch"));
  // Every scan lands in the histogram exactly once: solo scans as 1, each
  // batch as its group size — so recorded mass equals the query count.
  EXPECT_EQ(sizes.Sum(), 12);
  EXPECT_GE(sizes.Max(), 1);

  // The dispatch-tier gauge reflects the resolved kernel tier.
  EXPECT_EQ(registry.GetGauge("jdvs_kernel_dispatch_tier").Value(),
            static_cast<std::int64_t>(ActiveKernelTier()));
}

}  // namespace
}  // namespace jdvs
