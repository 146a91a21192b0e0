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
  explicit Built(const IvfIndexConfig& config = {})
      : features(embedder, ExtractionCostModel{.mean_micros = 0}) {
    CatalogGenConfig cg;
    cg.num_products = 80;
    cg.num_categories = 8;
    GenerateCatalog(cg, catalog, images);
    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 16;
    fc.index_config = config;
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

// One config block and one header: every IvfIndexConfig knob, set away
// from its default, and the update high-water mark survive the round trip
// through either loader.
TEST_F(SnapshotTest, RoundTripPreservesConfigAndHighWaterMark) {
  const IvfIndexConfig defaults;
  const IvfIndexConfig config{.nprobe = 5,
                              .filter_invalid_during_scan = false,
                              .filter_post_threshold = 0.75,
                              .filter_widen_threshold = 0.02,
                              .filter_widen_factor = 3};
  ASSERT_NE(config.nprobe, defaults.nprobe);
  ASSERT_NE(config.filter_invalid_during_scan,
            defaults.filter_invalid_during_scan);
  ASSERT_NE(config.filter_post_threshold, defaults.filter_post_threshold);
  ASSERT_NE(config.filter_widen_threshold, defaults.filter_widen_threshold);
  ASSERT_NE(config.filter_widen_factor, defaults.filter_widen_factor);
  Built built(config);
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path, /*update_hwm=*/42);

  std::uint64_t heap_hwm = 0;
  std::uint64_t mapped_hwm = 0;
  const auto heap = LoadIndexSnapshot(path, &heap_hwm);
  const auto mapped =
      LoadTieredSnapshot(path, TieredStoreConfig{}, &mapped_hwm);
  EXPECT_EQ(heap_hwm, 42u);
  EXPECT_EQ(mapped_hwm, 42u);
  for (const IvfIndex* loaded : {heap.get(), mapped.get()}) {
    const IvfIndexConfig& got = loaded->config();
    EXPECT_EQ(got.nprobe, 5u);
    EXPECT_FALSE(got.filter_invalid_during_scan);
    EXPECT_EQ(got.filter_post_threshold, 0.75);
    EXPECT_EQ(got.filter_widen_threshold, 0.02);
    EXPECT_EQ(got.filter_widen_factor, 3u);
    EXPECT_EQ(loaded->dim(), built.index->dim());
  }
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
        built.index->Search(query, 5, {.nprobe = 16, .filter = &filter});
    const auto restored =
        loaded->Search(query, 5, {.nprobe = 16, .filter = &filter});
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
  const auto hits = loaded->Search(feature, 1, {.nprobe = 16});
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

// A list naming a local id past the entry section, or one another list
// slot already names, is refused by both loaders rather than attached.
TEST_F(SnapshotTest, OutOfRangeLocalIdThrows) {
  Built built;
  const IvfIndex& index = *built.index;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(index, path);
  // Offset of the stored id arrays: prefix, config block, coarse centroids,
  // row stride, the entry section, then the directory. Ids and norms (4
  // bytes each) follow list by list; the test patches the second id of the
  // first list holding two.
  std::size_t offset = 8 + 4 + 8 + 8 + (8 + 1 + 8 + 8 + 8) + 8 + 8 +
                       index.quantizer().num_clusters() * index.dim() *
                           sizeof(float) +
                       8 + 8;
  index.ForEachEntry(
      [&](LocalId, const AttributeSnapshot& snapshot, bool) {
        offset += 4 + snapshot.image_url.size() + 8 + 4 + 3 * 8 + 4 +
                  snapshot.detail_url.size() + 1;
      });
  offset += 8 + index.num_lists() * (8 + 8 + 8 + 4);
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

}  // namespace
}  // namespace jdvs
