// Tests for product quantization: codebook training, encode/decode, ADC
// identity, and the PQ-coded IVF index.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "embedding/extractor.h"
#include "index/ivf_index.h"
#include "index/realtime_indexer.h"
#include "pq/codebook.h"
#include "store/catalog.h"
#include "store/feature_db.h"
#include "vecmath/distance.h"

namespace jdvs {
namespace {

std::vector<FeatureVector> RandomTraining(std::size_t count, std::size_t dim,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FeatureVector v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    points.push_back(std::move(v));
  }
  return points;
}

TEST(ProductQuantizerTest, EncodeDecodeShapes) {
  const auto training = RandomTraining(500, 32, 1);
  ProductQuantizerConfig config;
  config.num_subspaces = 8;
  config.codebook_size = 16;
  const ProductQuantizer pq = ProductQuantizer::Train(training, config);
  EXPECT_EQ(pq.dim(), 32u);
  EXPECT_EQ(pq.num_subspaces(), 8u);
  EXPECT_EQ(pq.subspace_dim(), 4u);
  EXPECT_EQ(pq.code_bytes(), 8u);

  const PqCode code = pq.Encode(training[0]);
  EXPECT_EQ(code.size(), 8u);
  for (const auto c : code) EXPECT_LT(c, 16);
  EXPECT_EQ(pq.Decode(code).size(), 32u);
}

TEST(ProductQuantizerTest, EncodingIsDeterministic) {
  const auto training = RandomTraining(200, 16, 2);
  ProductQuantizerConfig config;
  config.num_subspaces = 4;
  config.codebook_size = 32;
  const ProductQuantizer pq = ProductQuantizer::Train(training, config);
  EXPECT_EQ(pq.Encode(training[5]), pq.Encode(training[5]));
}

TEST(ProductQuantizerTest, ReconstructionErrorReasonable) {
  const auto training = RandomTraining(2000, 32, 3);
  ProductQuantizerConfig config;
  config.num_subspaces = 8;
  config.codebook_size = 64;
  const ProductQuantizer pq = ProductQuantizer::Train(training, config);
  double total_err = 0.0;
  double total_norm = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto& v = training[i];
    total_err += L2SquaredDistance(v, pq.Decode(pq.Encode(v)));
    total_norm += L2SquaredDistance(v, FeatureVector(32, 0.f));
  }
  // Quantization noise well below the signal energy.
  EXPECT_LT(total_err, 0.5 * total_norm);
}

TEST(ProductQuantizerTest, MoreCentroidsLowerError) {
  const auto training = RandomTraining(2000, 16, 4);
  const auto error_for = [&](std::size_t ks) {
    ProductQuantizerConfig config;
    config.num_subspaces = 4;
    config.codebook_size = ks;
    const ProductQuantizer pq = ProductQuantizer::Train(training, config);
    double err = 0.0;
    for (int i = 0; i < 200; ++i) {
      err += L2SquaredDistance(training[i],
                               pq.Decode(pq.Encode(training[i])));
    }
    return err;
  };
  EXPECT_LT(error_for(64), error_for(4));
}

TEST(ProductQuantizerTest, AdcMatchesDecodedDistance) {
  const auto training = RandomTraining(500, 24, 5);
  ProductQuantizerConfig config;
  config.num_subspaces = 6;
  config.codebook_size = 32;
  const ProductQuantizer pq = ProductQuantizer::Train(training, config);
  Rng rng(6);
  for (int t = 0; t < 20; ++t) {
    FeatureVector query(24);
    for (float& x : query) x = static_cast<float>(rng.NextGaussian());
    const auto table = pq.BuildDistanceTable(query);
    const PqCode code = pq.Encode(training[t]);
    // ADC == exact distance to the reconstruction (up to FP rounding).
    const float adc = pq.DistanceWithTable(table, code.data());
    const float exact = pq.AsymmetricDistance(query, code);
    EXPECT_NEAR(adc, exact, 1e-3f * (1.f + exact));
  }
}

TEST(ProductQuantizerTest, SnapshotRoundTripThroughRawCodebooks) {
  const auto training = RandomTraining(300, 16, 7);
  ProductQuantizerConfig config;
  config.num_subspaces = 4;
  config.codebook_size = 16;
  const ProductQuantizer original = ProductQuantizer::Train(training, config);
  const ProductQuantizer restored(original.dim(), original.num_subspaces(),
                                  original.codebook_size(),
                                  original.codebooks());
  EXPECT_EQ(original.Encode(training[0]), restored.Encode(training[0]));
}

// ---- IVF-PQ index ----

struct PqFixture {
  PqFixture()
      : embedder({.dim = 32, .num_categories = 8, .seed = 11}) {
    std::vector<FeatureVector> training;
    for (int i = 0; i < 800; ++i) {
      const ProductId pid = 1 + (i % 200);
      training.push_back(embedder.Extract(
          {MakeImageUrl(pid, static_cast<std::uint32_t>(i / 200)), pid,
           static_cast<CategoryId>(pid % 8)}));
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

  std::string MakeUrl(ProductId pid, std::uint32_t k) {
    return MakeImageUrl(pid, k);
  }

  void Fill(IvfIndex& index, std::size_t products, std::size_t images) {
    const ProductAttributes attrs{.sales = 5, .price_cents = 100, .praise = 1};
    for (ProductId pid = 1; pid <= products; ++pid) {
      for (std::uint32_t k = 0; k < images; ++k) {
        const std::string url = MakeUrl(pid, k);
        index.AddImage(url, pid, static_cast<CategoryId>(pid % 8), attrs, "",
                       embedder.Extract({url, pid,
                                         static_cast<CategoryId>(pid % 8)}));
      }
    }
  }

  SyntheticEmbedder embedder;
  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::shared_ptr<const ProductQuantizer> pq;
};

TEST(IvfPqIndexTest, FindsSubjectProduct) {
  PqFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;
  IvfIndex index(fx.quantizer, fx.pq, config);
  fx.Fill(index, 100, 3);
  EXPECT_EQ(index.size(), 300u);

  int hits = 0;
  for (ProductId pid = 1; pid <= 20; ++pid) {
    const auto query =
        fx.embedder.ExtractQuery(pid, static_cast<CategoryId>(pid % 8), pid);
    const auto results = index.Search(query, 5);
    ASSERT_FALSE(results.empty());
    if (results[0].product_id == pid) ++hits;
  }
  EXPECT_GE(hits, 18);  // PQ is lossy; near-perfect on separated data
}

TEST(IvfPqIndexTest, ValidityFiltering) {
  PqFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;
  IvfIndex index(fx.quantizer, fx.pq, config);
  fx.Fill(index, 20, 2);
  const auto query = fx.embedder.ExtractQuery(7, 7 % 8, 3);
  ASSERT_FALSE(index.Search(query, 3).empty());
  EXPECT_EQ(index.SetProductValidity(7, false), 2u);
  for (const auto& hit : index.Search(query, 3)) {
    EXPECT_NE(hit.product_id, 7u);
  }
}

TEST(IvfPqIndexTest, RerankingImprovesOrdering) {
  PqFixture fx;
  IvfIndexConfig plain;
  plain.nprobe = 16;
  IvfIndexConfig reranked = plain;
  reranked.rerank_candidates = 50;

  IvfIndex index_plain(fx.quantizer, fx.pq, plain);
  IvfIndex index_rerank(fx.quantizer, fx.pq, reranked);
  fx.Fill(index_plain, 150, 3);
  fx.Fill(index_rerank, 150, 3);

  // Re-ranked distances are exact; plain ADC distances are approximations.
  // Re-ranked top-1 must match exact search at least as often.
  int plain_top1 = 0;
  int rerank_top1 = 0;
  for (ProductId pid = 1; pid <= 40; ++pid) {
    const auto query =
        fx.embedder.ExtractQuery(pid, static_cast<CategoryId>(pid % 8), pid);
    const auto p = index_plain.Search(query, 1);
    const auto r = index_rerank.Search(query, 5);
    if (!p.empty() && p[0].product_id == pid) ++plain_top1;
    if (!r.empty() && r[0].product_id == pid) ++rerank_top1;
    // The rerank ran: every distance is the exact one to the raw feature,
    // not its ADC approximation.
    for (const SearchHit& hit : r) {
      const FeatureVector feature = fx.embedder.Extract(
          {hit.image_url, hit.product_id,
           static_cast<CategoryId>(hit.product_id % 8)});
      EXPECT_EQ(hit.distance, L2SquaredDistance(query, feature));
    }
  }
  EXPECT_GE(rerank_top1, plain_top1);
  EXPECT_GE(rerank_top1, 38);
}

TEST(IvfPqIndexTest, AdcDistancesMatchDecodedDistances) {
  PqFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;  // probe everything: the scan covers the whole corpus
  IvfIndex index(fx.quantizer, fx.pq, config);
  fx.Fill(index, 60, 1);

  for (ProductId pid = 1; pid <= 10; ++pid) {
    const auto query = fx.embedder.ExtractQuery(
        pid, static_cast<CategoryId>(pid % 8), /*seed=*/pid);
    for (const auto& hit : index.Search(query, 5)) {
      // The stored code is Encode(feature) and encoding is deterministic, so
      // the ADC distance the scan produced must match the asymmetric
      // distance to the reconstruction, up to table-vs-decode FP rounding.
      const FeatureVector feature = fx.embedder.Extract(
          {hit.image_url, hit.product_id,
           static_cast<CategoryId>(hit.product_id % 8)});
      const float exact =
          fx.pq->AsymmetricDistance(query, fx.pq->Encode(feature));
      EXPECT_NEAR(hit.distance, exact, 1e-3f * (1.f + exact));
    }
  }
}

TEST(IvfPqIndexTest, StatsReportCompression) {
  PqFixture fx;
  IvfIndex index(fx.quantizer, fx.pq);
  fx.Fill(index, 50, 2);
  const IvfIndexStats stats = index.Stats();
  EXPECT_EQ(stats.total_images, 100u);
  EXPECT_EQ(stats.valid_images, 100u);
  EXPECT_EQ(stats.code_bytes_per_vector, 8u);
  EXPECT_GT(stats.code_memory_bytes, 0u);
  EXPECT_EQ(stats.raw_memory_bytes, 0u);  // no refinement store
  // 32-d float vector = 128 B vs 8 B code: 16x compression.
  EXPECT_LT(stats.code_bytes_per_vector * 16,
            fx.quantizer->dim() * sizeof(float) + 1);
}

TEST(IvfPqIndexTest, ExhaustiveSearchNeedsFlatCodec) {
  PqFixture fx;
  IvfIndex index(fx.quantizer, fx.pq);
  fx.Fill(index, 5, 1);
  const auto query = fx.embedder.ExtractQuery(1, 1, 1);
  EXPECT_THROW(index.SearchExhaustive(query, 3), std::logic_error);
}

TEST(IvfPqIndexTest, HasImage) {
  PqFixture fx;
  IvfIndex index(fx.quantizer, fx.pq);
  EXPECT_FALSE(index.HasImage("jd://img/1/0"));
  fx.Fill(index, 1, 1);
  EXPECT_TRUE(index.HasImage("jd://img/1/0"));
  EXPECT_TRUE(index.HasProduct(1));
  EXPECT_FALSE(index.HasProduct(2));
}

TEST(IvfPqIndexTest, UpdateProductAttributes) {
  PqFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;
  IvfIndex index(fx.quantizer, fx.pq, config);
  fx.Fill(index, 5, 2);
  EXPECT_EQ(index.UpdateProductAttributes(
                3, {.sales = 777, .price_cents = 9, .praise = 1}, "new-url"),
            2u);
  const auto query = fx.embedder.ExtractQuery(3, 3 % 8, 1);
  const auto hits = index.Search(query, 2);
  ASSERT_FALSE(hits.empty());
  for (const auto& hit : hits) {
    if (hit.product_id == 3) {
      EXPECT_EQ(hit.attributes.sales, 777u);
      EXPECT_EQ(hit.detail_url, "new-url");
    }
  }
}

TEST(IvfPqIndexTest, SetImageValidityTargetsOneImage) {
  PqFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;
  IvfIndex index(fx.quantizer, fx.pq, config);
  fx.Fill(index, 3, 2);
  EXPECT_TRUE(index.SetImageValidity("jd://img/2/0", false));
  EXPECT_FALSE(index.SetImageValidity("unknown", false));
  const auto query = fx.embedder.ExtractQuery(2, 2 % 8, 1);
  for (const auto& hit : index.Search(query, 10)) {
    EXPECT_NE(hit.image_url, "jd://img/2/0");
  }
}

// The same RealTimeIndexer drives the PQ-coded index (Figure 6 semantics on
// IVF-PQ).
TEST(IvfPqIndexTest, RealTimeIndexerDrivesPqIndex) {
  PqFixture fx;
  IvfIndexConfig config;
  config.nprobe = 16;
  IvfIndex index(fx.quantizer, fx.pq, config);
  FeatureDb features(fx.embedder, ExtractionCostModel{.mean_micros = 0});
  RealTimeIndexer indexer(index, features);

  ProductUpdateMessage add;
  add.type = UpdateType::kAddProduct;
  add.product_id = 501;
  add.category_id = 5;
  add.attributes = {.sales = 9, .price_cents = 100, .praise = 2};
  for (std::uint32_t k = 0; k < 3; ++k) {
    add.image_urls.push_back(MakeImageUrl(501, k));
  }
  indexer.Apply(add);
  EXPECT_EQ(index.size(), 3u);
  const auto query = fx.embedder.ExtractQuery(501, 5, 3);
  ASSERT_FALSE(index.Search(query, 3).empty());
  EXPECT_EQ(index.Search(query, 3)[0].product_id, 501u);

  ProductUpdateMessage del;
  del.type = UpdateType::kRemoveProduct;
  del.product_id = 501;
  indexer.Apply(del);
  EXPECT_TRUE(index.Search(query, 3).empty());

  indexer.Apply(add);  // re-list: reuse, no new entries
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(indexer.counters().images_revalidated, 3u);
  EXPECT_FALSE(index.Search(query, 3).empty());
}

}  // namespace
}  // namespace jdvs
