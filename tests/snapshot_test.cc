// Tests for index snapshot persistence: round trips, corruption handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "index/digest.h"
#include "index/full_index_builder.h"
#include "index/snapshot.h"
#include "search/searcher.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("jdvs_snapshot_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

struct Built {
  Built() : features(embedder, ExtractionCostModel{.mean_micros = 0}) {
    CatalogGenConfig cg;
    cg.num_products = 80;
    cg.num_categories = 8;
    GenerateCatalog(cg, catalog, images);
    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 16;
    fc.index_config.nprobe = 4;
    FullIndexBuilder builder(catalog, images, features, fc);
    index = builder.Build(builder.TrainQuantizer());
  }
  SyntheticEmbedder embedder{{.dim = 24, .num_categories = 8, .seed = 2}};
  ProductCatalog catalog;
  ImageStore images;
  FeatureDb features;
  std::unique_ptr<IvfIndex> index;
};

TEST_F(SnapshotTest, RoundTripPreservesSearchResults) {
  Built built;
  built.index->SetProductValidity(3, false);  // some invalid state too
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);

  ASSERT_EQ(loaded->size(), built.index->size());
  EXPECT_EQ(loaded->Stats().valid_images, built.index->Stats().valid_images);
  EXPECT_EQ(loaded->Stats().num_lists, built.index->Stats().num_lists);

  for (ProductId pid = 1; pid <= 20; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query =
        built.embedder.ExtractQuery(pid, record->category, pid);
    const auto original = built.index->Search(query, 5);
    const auto restored = loaded->Search(query, 5);
    ASSERT_EQ(original.size(), restored.size()) << "pid " << pid;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_FLOAT_EQ(original[i].distance, restored[i].distance);
      EXPECT_EQ(original[i].attributes, restored[i].attributes);
      EXPECT_EQ(original[i].image_url, restored[i].image_url);
      EXPECT_EQ(original[i].detail_url, restored[i].detail_url);
    }
  }
}

TEST_F(SnapshotTest, RoundTripPreservesConfig) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded->config().nprobe, built.index->config().nprobe);
  EXPECT_EQ(loaded->dim(), built.index->dim());
}

// The snapshot persists the attribute filter state (category bitmaps +
// numeric columns): a loaded index answers hybrid filtered queries
// identically, and the filter knobs survive the config round trip.
TEST_F(SnapshotTest, RoundTripPreservesFilteredSearch) {
  Built built;
  built.index->SetProductValidity(7, false);
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);

  EXPECT_EQ(loaded->config().filter_post_threshold,
            built.index->config().filter_post_threshold);
  EXPECT_EQ(loaded->config().filter_widen_threshold,
            built.index->config().filter_widen_threshold);
  EXPECT_EQ(loaded->config().filter_widen_factor,
            built.index->config().filter_widen_factor);
  EXPECT_EQ(loaded->attribute_filters().ColumnChecksum(),
            built.index->attribute_filters().ColumnChecksum());

  FilterExpression filter;
  filter.WithCategoryRange(0, 3).WithMin(FilterField::kSales, 1);
  for (ProductId pid = 1; pid <= 20; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query =
        built.embedder.ExtractQuery(pid, record->category, pid);
    const auto original =
        built.index->Search(query, 5, 16, kNoCategoryFilter, filter);
    const auto restored =
        loaded->Search(query, 5, 16, kNoCategoryFilter, filter);
    ASSERT_EQ(original.size(), restored.size()) << "pid " << pid;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_TRUE(filter.Matches(restored[i].category,
                                 restored[i].attributes));
    }
  }
}

TEST_F(SnapshotTest, LoadedIndexAcceptsNewWrites) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  auto loaded = LoadIndexSnapshot(path);
  const auto feature = built.embedder.Extract({"new-image", 999, 3});
  loaded->AddImage("new-image", 999, 3, {.sales = 1}, "", feature);
  const auto hits = loaded->Search(feature, 1, /*nprobe=*/16);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].product_id, 999u);
}

TEST_F(SnapshotTest, MissingFileThrows) {
  EXPECT_THROW(LoadIndexSnapshot(PathFor("nope.snap")), SnapshotError);
}

TEST_F(SnapshotTest, BadMagicThrows) {
  const std::string path = PathFor("garbage.snap");
  std::ofstream(path, std::ios::binary) << "this is not a snapshot at all";
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

TEST_F(SnapshotTest, TruncatedFileThrows) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  // Truncate to 60% of its size.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 6 / 10);
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

TEST_F(SnapshotTest, HighWaterMarkRoundTrips) {
  Built built;
  const std::string path = PathFor("hwm.snap");
  SaveIndexSnapshot(*built.index, path, /*update_hwm=*/42);
  std::uint64_t hwm = 0;
  const auto loaded = LoadIndexSnapshot(path, &hwm);
  EXPECT_EQ(hwm, 42u);
  EXPECT_EQ(loaded->size(), built.index->size());
  // Omitting the out-param still loads.
  EXPECT_EQ(LoadIndexSnapshot(path)->size(), built.index->size());
}

TEST_F(SnapshotTest, SearcherSnapshotDuringConcurrentUpdates) {
  // A snapshot save racing a real-time update batch must capture a
  // consistent (index, high-water mark) cut: every product with sequence
  // <= hwm present, everything past it absent. The searcher's writer mutex
  // is the contract under test.
  SyntheticEmbedder embedder({.dim = 16, .num_categories = 4, .seed = 7});
  FeatureDb features(embedder, ExtractionCostModel{.mean_micros = 0});
  Searcher searcher("snap-race", Searcher::Config{}, features,
                    AcceptAllPartitionFilter());
  auto quantizer =
      std::make_shared<CoarseQuantizer>(std::vector<float>(16, 0.f), 16);
  searcher.InstallIndex(std::make_unique<IvfIndex>(quantizer), 0);

  constexpr std::uint64_t kMessages = 200;
  std::thread writer([&searcher] {
    for (std::uint64_t seq = 1; seq <= kMessages; ++seq) {
      ProductUpdateMessage add;
      add.type = UpdateType::kAddProduct;
      add.product_id = 1000 + seq;
      add.category_id = 1;
      add.image_urls = {MakeImageUrl(1000 + seq, 0)};
      add.sequence = seq;
      searcher.ApplyUpdate(add);
    }
  });
  const std::string path = PathFor("race.snap");
  searcher.SaveIndexSnapshot(path);
  writer.join();

  std::uint64_t hwm = 0;
  const auto loaded = LoadIndexSnapshot(path, &hwm);
  EXPECT_LE(hwm, kMessages);
  for (std::uint64_t seq = 1; seq <= kMessages; ++seq) {
    EXPECT_EQ(loaded->HasProduct(1000 + seq), seq <= hwm) << "seq " << seq;
  }
  EXPECT_EQ(searcher.applied_sequence(), kMessages);
  // Duplicates at or below the mark are skipped, not re-applied.
  ProductUpdateMessage dup;
  dup.type = UpdateType::kAddProduct;
  dup.product_id = 1001;
  dup.image_urls = {MakeImageUrl(1001, 0)};
  dup.sequence = 1;
  EXPECT_FALSE(searcher.ApplyUpdate(dup));
}

TEST_F(SnapshotTest, EmptyIndexRoundTrips) {
  auto quantizer = std::make_shared<CoarseQuantizer>(
      std::vector<float>(8, 0.f), 8);
  IvfIndex empty(quantizer);
  const std::string path = PathFor("empty.snap");
  SaveIndexSnapshot(empty, path);
  const auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded->size(), 0u);
}

// ---- PQ-coded snapshots: the same format and loaders as the flat codec ----

IvfIndexConfig PqConfig(bool keep_raw) {
  IvfIndexConfig config;
  config.nprobe = 8;
  config.rerank_candidates = keep_raw ? 20 : 0;
  return config;
}

struct PqBuilt {
  explicit PqBuilt(bool keep_raw = false) : PqBuilt(PqConfig(keep_raw)) {}
  explicit PqBuilt(const IvfIndexConfig& config) {
    std::vector<FeatureVector> training;
    for (ProductId pid = 1; pid <= 100; ++pid) {
      training.push_back(embedder.Extract(
          {MakeImageUrl(pid, 0), pid, static_cast<CategoryId>(pid % 8)}));
    }
    KMeansConfig kc;
    kc.num_clusters = 8;
    auto quantizer =
        std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));
    ProductQuantizerConfig pc;
    pc.num_subspaces = 4;
    pc.codebook_size = 32;
    auto pq = std::make_shared<ProductQuantizer>(
        ProductQuantizer::Train(training, pc));
    index = std::make_unique<IvfIndex>(quantizer, pq, config);
    const ProductAttributes attrs{.sales = 4, .price_cents = 99, .praise = 2};
    for (ProductId pid = 1; pid <= 60; ++pid) {
      for (std::uint32_t k = 0; k < 2; ++k) {
        const std::string url = MakeImageUrl(pid, k);
        index->AddImage(url, pid, static_cast<CategoryId>(pid % 8), attrs, "",
                        embedder.Extract(
                            {url, pid, static_cast<CategoryId>(pid % 8)}));
      }
    }
    index->SetProductValidity(9, false);
  }
  SyntheticEmbedder embedder{{.dim = 24, .num_categories = 8, .seed = 6}};
  std::unique_ptr<IvfIndex> index;
};

TEST_F(SnapshotTest, PqRoundTripPreservesSearchResults) {
  PqBuilt built;
  const std::string path = PathFor("pq.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);
  ASSERT_EQ(loaded->size(), built.index->size());
  EXPECT_EQ(loaded->Stats().valid_images, built.index->Stats().valid_images);
  for (ProductId pid = 1; pid <= 30; ++pid) {
    const auto query = built.embedder.ExtractQuery(
        pid, static_cast<CategoryId>(pid % 8), pid);
    const auto original = built.index->Search(query, 5);
    const auto restored = loaded->Search(query, 5);
    ASSERT_EQ(original.size(), restored.size()) << "pid " << pid;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_FLOAT_EQ(original[i].distance, restored[i].distance);
    }
  }
}

TEST_F(SnapshotTest, PqRoundTripWithRefinementStore) {
  PqBuilt built(/*keep_raw=*/true);
  const std::string path = PathFor("pq_raw.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);
  EXPECT_GT(loaded->Stats().raw_memory_bytes, 0u);
  for (ProductId pid = 1; pid <= 20; ++pid) {
    const auto query = built.embedder.ExtractQuery(
        pid, static_cast<CategoryId>(pid % 8), pid);
    const auto original = built.index->Search(query, 5);
    const auto restored = loaded->Search(query, 5);
    ASSERT_EQ(original.size(), restored.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_FLOAT_EQ(original[i].distance, restored[i].distance);
    }
  }
}

TEST_F(SnapshotTest, PqBadMagicThrows) {
  const std::string path = PathFor("pq_garbage.snap");
  std::ofstream(path, std::ios::binary) << "junk junk junk junk";
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

TEST_F(SnapshotTest, PqTruncatedThrows) {
  PqBuilt built;
  const std::string path = PathFor("pq.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

// A list naming a local id past the entry section, or one another list
// slot already names, is refused by both loaders rather than attached.
TEST_F(SnapshotTest, OutOfRangeLocalIdThrows) {
  PqBuilt built;
  const IvfIndex& index = *built.index;
  ASSERT_FALSE(index.keeps_raw());
  const std::string path = PathFor("pq.snap");
  SaveIndexSnapshot(index, path);
  // Offset of the stored id arrays: prefix, config block, coarse centroids,
  // PQ shape + codebooks, row stride, the entry section, the raw-feature
  // flag, then the directory. Ids and norms (4 bytes each) follow list by
  // list; the test patches the second id of the first list holding two.
  std::size_t offset = 8 + 4 + 8 + 8 + (8 + 1 + 8 + 8 + 8 + 8) + 8 + 8 +
                       index.quantizer().num_clusters() * index.dim() *
                           sizeof(float) +
                       8 + 8 + index.pq()->codebooks().size() * sizeof(float) +
                       8 + 8;
  index.ForEachEntry([&](LocalId, const AttributeSnapshot& snapshot,
                         FeatureView, bool) {
    offset += 4 + snapshot.image_url.size() + 8 + 4 + 3 * 8 + 4 +
              snapshot.detail_url.size() + 1;
  });
  offset += 1 + 8 + index.num_lists() * (8 + 8 + 8 + 4);
  std::size_t list = 0;
  while (index.ListEntryCount(list) < 2) {
    offset += index.ListEntryCount(list) * (sizeof(LocalId) + 4);
    ASSERT_LT(++list, index.num_lists());
  }
  std::vector<LocalId> want;  // the list's ids, in stored order
  index.ForEachScanRun(list, [&](const LocalId* ids, const std::uint8_t*,
                                 const float*, std::size_t count) {
    want.insert(want.end(), ids, ids + count);
  });
  {
    std::ifstream f(path, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    LocalId stored[2] = {};
    f.read(reinterpret_cast<char*>(stored), sizeof(stored));
    ASSERT_EQ(stored[0], want[0]);  // the offset arithmetic lands on them
    ASSERT_EQ(stored[1], want[1]);
  }
  const std::string bad = PathFor("bad.snap");
  for (const LocalId bad_id :
       {static_cast<LocalId>(index.size() + 1000), want[0]}) {
    SCOPED_TRACE(bad_id);
    std::filesystem::copy_file(
        path, bad, std::filesystem::copy_options::overwrite_existing);
    {
      std::fstream f(bad, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(static_cast<std::streamoff>(offset + sizeof(LocalId)));
      f.write(reinterpret_cast<const char*>(&bad_id), sizeof(bad_id));
    }
    EXPECT_THROW(LoadIndexSnapshot(bad), SnapshotError);
    EXPECT_THROW(LoadTieredSnapshot(bad, TieredStoreConfig{}), SnapshotError);
  }
}

// One config block and one header serve both codecs: a PQ round trip keeps
// every knob, including the four filter knobs, and the update high-water
// mark, through either loader.
TEST_F(SnapshotTest, PqRoundTripPreservesConfigAndHighWaterMark) {
  IvfIndexConfig config = PqConfig(/*keep_raw=*/true);
  config.nprobe = 5;
  config.filter_invalid_during_scan = false;
  config.filter_post_threshold = 0.75;
  config.filter_widen_threshold = 0.02;
  config.filter_widen_factor = 3;
  PqBuilt built(config);
  const std::string path = PathFor("pq_config.snap");
  SaveIndexSnapshot(*built.index, path, /*update_hwm=*/42);

  std::uint64_t heap_hwm = 0;
  std::uint64_t mapped_hwm = 0;
  const auto heap = LoadIndexSnapshot(path, &heap_hwm);
  const auto mapped =
      LoadTieredSnapshot(path, TieredStoreConfig{}, &mapped_hwm);
  EXPECT_EQ(heap_hwm, 42u);
  EXPECT_EQ(mapped_hwm, 42u);
  for (const IvfIndex* loaded : {heap.get(), mapped.get()}) {
    ASSERT_NE(loaded->pq(), nullptr);
    const IvfIndexConfig& got = loaded->config();
    EXPECT_EQ(got.nprobe, 5u);
    EXPECT_FALSE(got.filter_invalid_during_scan);
    EXPECT_EQ(got.filter_post_threshold, 0.75);
    EXPECT_EQ(got.filter_widen_threshold, 0.02);
    EXPECT_EQ(got.filter_widen_factor, 3u);
    EXPECT_EQ(got.rerank_candidates, 20u);
    EXPECT_TRUE(loaded->keeps_raw());
  }
}

// PQ codes served in place from a mapped file: with a 1-byte residency
// budget every probe after the first refaults its list, and answers still
// equal the original index's, with and without the rerank store.
TEST_F(SnapshotTest, PqMappedLoadIsBitExact) {
  for (const bool keep_raw : {false, true}) {
    SCOPED_TRACE(keep_raw ? "with rerank store" : "codes only");
    PqBuilt built(keep_raw);
    const std::string path = PathFor(keep_raw ? "pq_raw.snap" : "pq.snap");
    SaveIndexSnapshot(*built.index, path, /*update_hwm=*/7);

    TieredStoreConfig tier;
    tier.resident_bytes_budget = 1;
    const auto mapped = LoadTieredSnapshot(path, tier);
    ASSERT_NE(mapped->tiered_store(), nullptr);
    ASSERT_NE(mapped->pq(), nullptr);
    EXPECT_EQ(mapped->keeps_raw(), keep_raw);

    FilterExpression filter;
    filter.WithCategoryRange(0, 3);
    for (ProductId pid = 1; pid <= 30; ++pid) {
      const auto query = built.embedder.ExtractQuery(
          pid, static_cast<CategoryId>(pid % 8), pid);
      const auto original = built.index->Search(query, 5);
      const auto restored = mapped->Search(query, 5);
      ASSERT_EQ(original.size(), restored.size()) << "pid " << pid;
      for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(original[i].image_id, restored[i].image_id);
        EXPECT_EQ(original[i].distance, restored[i].distance);
      }
      const auto want =
          built.index->Search(query, 5, 8, kNoCategoryFilter, filter);
      const auto got = mapped->Search(query, 5, 8, kNoCategoryFilter, filter);
      ASSERT_EQ(want.size(), got.size()) << "filtered pid " << pid;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].image_id, got[i].image_id);
        EXPECT_EQ(want[i].distance, got[i].distance);
      }
    }
    EXPECT_GT(mapped->tiered_store()->Stats().misses, 0u);

    const auto heap = LoadIndexSnapshot(path);
    const IndexDigest heap_digest = ComputeIndexDigest(*heap);
    const IndexDigest mapped_digest = ComputeIndexDigest(*mapped);
    EXPECT_EQ(heap_digest.content_hash, mapped_digest.content_hash);
    EXPECT_EQ(heap_digest.entries, mapped_digest.entries);
    EXPECT_EQ(heap_digest.valid_entries, mapped_digest.valid_entries);
  }
}

}  // namespace
}  // namespace jdvs
