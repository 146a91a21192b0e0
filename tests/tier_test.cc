// Tests for the tiered memory/disk subsystem: mapped snapshot round trips,
// mapped-vs-heap bit-exactness, corruption rejection, the hot-list
// residency cache (hits/misses, clock eviction, pin-wins, io budget), and
// the integrity layer (checksums, quarantine, SIGBUS survival, scrub).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "common/crc32c.h"
#include "index/digest.h"
#include "index/full_index_builder.h"
#include "index/snapshot.h"
#include "net/fault_injector.h"
#include "tier/scrubber.h"
#include "tier/tiered_store.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

class TierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("jdvs_tier_test_" + std::to_string(::getpid()) + "_" +
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
    cg.num_products = 120;
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

void ExpectSameResults(const std::vector<SearchHit>& a,
                       const std::vector<SearchHit>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_id, b[i].image_id) << what << " rank " << i;
    EXPECT_FLOAT_EQ(a[i].distance, b[i].distance) << what << " rank " << i;
    EXPECT_EQ(a[i].attributes, b[i].attributes) << what << " rank " << i;
    EXPECT_EQ(a[i].image_url, b[i].image_url) << what << " rank " << i;
  }
}

// A clock that advances by `step` micros on every read, so a fault walk
// "costs" a deterministic amount of io-budget time under test.
class SteppingClock final : public Clock {
 public:
  explicit SteppingClock(Micros step) : step_(step) {}
  Micros NowMicros() const override {
    return now_.fetch_add(step_, std::memory_order_relaxed);
  }

 private:
  const Micros step_;
  mutable std::atomic<Micros> now_{0};
};

// ---------------------------------------------------------------------------
// Mapped snapshots: round trips, bit-exactness, version check, corruption.
// ---------------------------------------------------------------------------

TEST_F(TierTest, MappedLoadIsBitExactAgainstOriginal) {
  Built built;
  built.index->SetProductValidity(5, false);
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path, /*update_hwm=*/17);

  std::uint64_t hwm = 0;
  const auto mapped =
      LoadTieredSnapshot(path, TieredStoreConfig{}, &hwm);
  EXPECT_EQ(hwm, 17u);
  ASSERT_NE(mapped->tiered_store(), nullptr);
  EXPECT_EQ(mapped->size(), built.index->size());
  EXPECT_EQ(mapped->Stats().valid_images, built.index->Stats().valid_images);

  const IndexDigest original = ComputeIndexDigest(*built.index);
  const IndexDigest restored = ComputeIndexDigest(*mapped);
  EXPECT_EQ(original.content_hash, restored.content_hash);
  EXPECT_EQ(original.entries, restored.entries);

  for (ProductId pid = 1; pid <= 30; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query = built.embedder.ExtractQuery(pid, record->category, pid);
    ExpectSameResults(built.index->Search(query, 5),
                      mapped->Search(query, 5), "plain");
  }
  // Filtered search goes through the same frozen scan path.
  FilterExpression filter;
  filter.WithCategoryRange(0, 3).WithMin(FilterField::kSales, 1);
  for (ProductId pid = 1; pid <= 10; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query = built.embedder.ExtractQuery(pid, record->category, pid);
    ExpectSameResults(
        built.index->Search(query, 5, {.nprobe = 16, .filter = &filter}),
        mapped->Search(query, 5, {.nprobe = 16, .filter = &filter}),
        "filtered");
  }
}

TEST_F(TierTest, HeapLoadDispatchesV4AndMatchesMapped) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path, /*update_hwm=*/9);

  // The heap loader must produce the same index from the same file (it
  // copies everything to heap; no tier store attached).
  std::uint64_t hwm = 0;
  const auto heap = LoadIndexSnapshot(path, &hwm);
  EXPECT_EQ(hwm, 9u);
  EXPECT_EQ(heap->tiered_store(), nullptr);

  const auto mapped = LoadTieredSnapshot(path, TieredStoreConfig{});
  const IndexDigest heap_digest = ComputeIndexDigest(*heap);
  const IndexDigest mapped_digest = ComputeIndexDigest(*mapped);
  EXPECT_EQ(heap_digest.content_hash, mapped_digest.content_hash);
  EXPECT_EQ(heap_digest.entries, mapped_digest.entries);
  EXPECT_EQ(heap_digest.valid_entries, mapped_digest.valid_entries);

  for (ProductId pid = 1; pid <= 30; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query = built.embedder.ExtractQuery(pid, record->category, pid);
    ExpectSameResults(heap->Search(query, 5), mapped->Search(query, 5),
                      "heap-vs-mapped");
  }
}

TEST_F(TierTest, BudgetedServingIsBitExact) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);

  TieredStoreConfig config;
  const auto unlimited = LoadTieredSnapshot(path, config);
  const std::size_t payload =
      unlimited->tiered_store()->Stats().payload_bytes;
  ASSERT_GT(payload, 0u);
  // Serve the full catalog from ~1/10 of its posting bytes.
  config.resident_bytes_budget = std::max<std::size_t>(1, payload / 10);
  const auto tight = LoadTieredSnapshot(path, config);

  for (int round = 0; round < 3; ++round) {
    for (ProductId pid = 1; pid <= 40; ++pid) {
      const auto record = built.catalog.Get(pid);
      const auto query =
          built.embedder.ExtractQuery(pid, record->category, pid);
      ExpectSameResults(built.index->Search(query, 10),
                        tight->Search(query, 10), "budgeted");
    }
  }
  const TieredStoreStats stats = tight->tiered_store()->Stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.resident_lists, stats.num_lists);
  EXPECT_EQ(stats.probes_dropped, 0u);  // unlimited io budget in this test
}

TEST_F(TierTest, MappedIndexAcceptsNewWrites) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  auto mapped = LoadTieredSnapshot(path, TieredStoreConfig{});

  const auto before = ComputeIndexDigest(*mapped);
  const auto feature = built.embedder.Extract({"tier-new-image", 999, 3});
  mapped->AddImage("tier-new-image", 999, 3, {.sales = 1}, "", feature);
  const auto hits = mapped->Search(feature, 1, {.nprobe = 16});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].product_id, 999u);
  // The frozen prefix is untouched: removing nothing, digest grew by the
  // delta only (entry count +1).
  EXPECT_EQ(ComputeIndexDigest(*mapped).entries, before.entries + 1);
}

TEST_F(TierTest, TruncatedV4Throws) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto size = std::filesystem::file_size(path);

  // Cut mid-payload: the directory promises extents past EOF.
  std::filesystem::resize_file(path, size * 6 / 10);
  EXPECT_THROW(LoadTieredSnapshot(path, TieredStoreConfig{}), SnapshotError);
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);

  // Cut mid-head: the directory/verification stream itself is truncated.
  std::filesystem::resize_file(path, 100);
  EXPECT_THROW(LoadTieredSnapshot(path, TieredStoreConfig{}), SnapshotError);

  // Cut mid-prefix.
  std::filesystem::resize_file(path, 12);
  EXPECT_THROW(LoadTieredSnapshot(path, TieredStoreConfig{}), SnapshotError);
}

TEST_F(TierTest, CorruptDirectoryThrows) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);

  // payload_base lives at offset 20 (magic + version + hwm); forcing its low
  // byte to an odd value breaks the 64-byte alignment invariant.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    const char bad = 0x01;
    f.write(&bad, 1);
  }
  EXPECT_THROW(LoadTieredSnapshot(path, TieredStoreConfig{}), SnapshotError);
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

TEST_F(TierTest, OtherVersionThrowsFromBothLoaders) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  // The version field follows the 8-byte magic; both loaders read only the
  // version the writer emits.
  for (const std::uint32_t version : {5u, 7u}) {
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(8);
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    EXPECT_THROW(LoadTieredSnapshot(path, TieredStoreConfig{}), SnapshotError)
        << "version " << version;
    EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError)
        << "version " << version;
  }
  EXPECT_THROW(LoadTieredSnapshot(PathFor("missing"), TieredStoreConfig{}),
               SnapshotError);
}

// ---------------------------------------------------------------------------
// TieredListStore unit tests over a synthetic payload file.
// ---------------------------------------------------------------------------

constexpr std::size_t kSynListBytes = 8192;

// Writes `num_lists` segments of kSynListBytes, each filled with a
// per-list marker byte, 64-byte aligned (page-sized, so trivially aligned).
std::vector<TieredListStore::ListExtent> WriteSyntheticPayload(
    const std::string& path, std::size_t num_lists) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  std::vector<TieredListStore::ListExtent> extents;
  for (std::size_t i = 0; i < num_lists; ++i) {
    const std::string fill(kSynListBytes, static_cast<char>(i * 17 + 1));
    extents.push_back({i * kSynListBytes, kSynListBytes});
    os.write(fill.data(), static_cast<std::streamsize>(fill.size()));
  }
  return extents;
}

struct SynStore {
  SynStore(const std::string& path, std::size_t num_lists,
           std::size_t budget_lists, const Clock* clock = nullptr)
      : extents(WriteSyntheticPayload(path, num_lists)) {
    TieredStoreConfig config;
    config.resident_bytes_budget = budget_lists * kSynListBytes;
    config.registry = &registry;
    config.clock = clock;
    store = std::make_unique<TieredListStore>(MmapFile::Open(path),
                                              std::move(extents), config);
  }
  obs::Registry registry;
  std::vector<TieredListStore::ListExtent> extents;
  std::unique_ptr<TieredListStore> store;
};

TEST_F(TierTest, StoreHitMissEvictAccounting) {
  SynStore syn(PathFor("payload.bin"), /*num_lists=*/6, /*budget_lists=*/2);
  TieredListStore& store = *syn.store;

  const std::uint32_t first[] = {0, 1};
  {
    const auto guard = store.Pin(first, /*io_budget_micros=*/0, nullptr);
    EXPECT_EQ(guard.num_pinned(), 2u);
  }
  TieredStoreStats s = store.Stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.resident_bytes, 2 * kSynListBytes);

  {  // Re-pinning resident lists is a hit, no eviction.
    const auto guard = store.Pin(first, 0, nullptr);
    EXPECT_EQ(guard.num_pinned(), 2u);
  }
  s = store.Stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.evictions, 0u);

  {  // A third list over a two-list budget evicts.
    const std::uint32_t third[] = {2};
    const auto guard = store.Pin(third, 0, nullptr);
    EXPECT_EQ(guard.num_pinned(), 1u);
  }
  s = store.Stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, 2 * kSynListBytes);
}

TEST_F(TierTest, PinWinsOverEviction) {
  SynStore syn(PathFor("payload.bin"), /*num_lists=*/4, /*budget_lists=*/1);
  TieredListStore& store = *syn.store;

  const std::uint32_t a[] = {0};
  const std::uint32_t b[] = {1};
  auto guard_a = store.Pin(a, 0, nullptr);
  // List 0 is pinned: admitting list 1 cannot evict it, so the budget is
  // overshot rather than the pin broken.
  auto guard_b = store.Pin(b, 0, nullptr);
  EXPECT_EQ(guard_a.num_pinned(), 1u);
  EXPECT_EQ(guard_b.num_pinned(), 1u);
  TieredStoreStats s = store.Stats();
  EXPECT_EQ(s.resident_bytes, 2 * kSynListBytes);
  EXPECT_EQ(s.evictions, 0u);

  // Release list 0; the next admission can now evict it (list 1 stays
  // pinned), bringing residency back under budget.
  guard_a = TieredListStore::PinGuard();
  const std::uint32_t c[] = {2};
  const auto guard_c = store.Pin(c, 0, nullptr);
  s = store.Stats();
  EXPECT_GE(s.evictions, 1u);
  {  // List 1 must still be resident: pin wins.
    const auto again = store.Pin(b, 0, nullptr);
    EXPECT_EQ(store.Stats().hits, s.hits + 1);
  }
}

TEST_F(TierTest, IoBudgetDropsColdProbesButServesFirst) {
  // Every fault "costs" 100us on the stepping clock. With a 50us budget the
  // first cold list is still served (degraded answers need one probe), and
  // the remaining cold probes are dropped.
  SteppingClock clock(100);
  SynStore syn(PathFor("payload.bin"), /*num_lists=*/8, /*budget_lists=*/0,
               &clock);
  TieredListStore& store = *syn.store;

  TierScanStats stats;
  const std::uint32_t probes[] = {3, 4, 5, 6};
  {
    const auto guard = store.Pin(probes, /*io_budget_micros=*/50, &stats);
    EXPECT_EQ(guard.num_pinned(), 1u);
  }
  EXPECT_EQ(stats.lists_faulted, 1u);
  EXPECT_EQ(stats.probes_dropped, 3u);
  EXPECT_GE(stats.fault_micros, 100);
  EXPECT_EQ(store.Stats().probes_dropped, 3u);

  // Once the lists are warm, the same budget serves everything as hits.
  {
    const auto warm = store.Pin(probes, /*io_budget_micros=*/0, nullptr);
    EXPECT_EQ(warm.num_pinned(), 4u);
  }
  TierScanStats warm_stats;
  {
    const auto guard = store.Pin(probes, /*io_budget_micros=*/50, &warm_stats);
    EXPECT_EQ(guard.num_pinned(), 4u);
  }
  EXPECT_EQ(warm_stats.probes_dropped, 0u);
  EXPECT_EQ(warm_stats.lists_hit, 4u);
}

TEST_F(TierTest, ConcurrentPinScanEvictionRace) {
  // Four threads hammer overlapping probe sets over a one-list budget so
  // admissions constantly try to evict what other threads have pinned.
  // Pinned data must always read back intact (TSan guards the store's
  // internal state; eviction itself is only an madvise, never a data hazard).
  SynStore syn(PathFor("payload.bin"), /*num_lists=*/8, /*budget_lists=*/1);
  TieredListStore& store = *syn.store;

  std::atomic<int> bad_bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &bad_bytes, t] {
      for (int i = 0; i < 400; ++i) {
        const std::uint32_t probes[] = {
            static_cast<std::uint32_t>((i + t) % 8),
            static_cast<std::uint32_t>((i * 3 + t) % 8),
            static_cast<std::uint32_t>((i * 5 + 2 * t) % 8)};
        const auto guard = store.Pin(probes, 0, nullptr);
        for (std::size_t p = 0; p < guard.num_pinned(); ++p) {
          const auto extent = store.extent(probes[p]);
          const std::uint8_t* data = store.file().data() + extent.offset;
          const auto want = static_cast<std::uint8_t>(probes[p] * 17 + 1);
          if (data[0] != want || data[extent.bytes - 1] != want) {
            bad_bytes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad_bytes.load(), 0);
  const TieredStoreStats s = store.Stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.hits + s.misses, 4u * 400u * 3u);
}

TEST_F(TierTest, ConcurrentSearchOnBudgetedMappedIndex) {
  // End-to-end race: concurrent searches on a mapped index whose store
  // evicts under a tight budget must all match the RAM-resident answers.
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  TieredStoreConfig config;
  config.resident_bytes_budget = std::max<std::size_t>(
      1, LoadTieredSnapshot(path, TieredStoreConfig{})
                 ->tiered_store()
                 ->Stats()
                 .payload_bytes /
             10);
  const auto mapped = LoadTieredSnapshot(path, config);

  struct Expected {
    FeatureVector query;
    std::vector<SearchHit> results;
  };
  std::vector<Expected> expected;
  for (ProductId pid = 1; pid <= 24; ++pid) {
    const auto record = built.catalog.Get(pid);
    auto query = built.embedder.ExtractQuery(pid, record->category, pid);
    auto results = built.index->Search(query, 5);
    expected.push_back({std::move(query), std::move(results)});
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const Expected& e = expected[(i * 4 + t) % expected.size()];
        const auto got = mapped->Search(e.query, 5);
        if (got.size() != e.results.size()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t r = 0; r < got.size(); ++r) {
          if (got[r].image_id != e.results[r].image_id ||
              got[r].distance != e.results[r].distance) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(mapped->tiered_store()->Stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Integrity layer: CRC32C, checksummed snapshots, quarantine, SIGBUS
// survival, scrub, storage fault injection.
// ---------------------------------------------------------------------------

TEST_F(TierTest, Crc32cKnownAnswer) {
  // RFC 3720 check value for the Castagnoli polynomial.
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(check, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Incremental == one-shot.
  const std::uint32_t part = Crc32c(check, 4);
  EXPECT_EQ(Crc32c(check + 4, 5, part), Crc32c(check, 9));
}

TEST_F(TierTest, MmapFileTypedErrors) {
  // Zero-length file.
  const std::string empty = PathFor("empty");
  { std::ofstream os(empty, std::ios::binary); }
  EXPECT_THROW(MmapFile::Open(empty), MmapError);
  // Not a regular file (a directory).
  EXPECT_THROW(MmapFile::Open(dir_.string()), MmapError);
  // Missing file.
  EXPECT_THROW(MmapFile::Open(PathFor("missing")), MmapError);
}

TEST_F(TierTest, RoundTripCarriesChecksums) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path, /*update_hwm=*/3);

  const auto mapped = LoadTieredSnapshot(path, TieredStoreConfig{});
  EXPECT_TRUE(mapped->tiered_store()->has_checksums());

  // The heap loader verifies during copy and restores the same content.
  const auto heap = LoadIndexSnapshot(path);
  EXPECT_EQ(ComputeIndexDigest(*heap).content_hash,
            ComputeIndexDigest(*mapped).content_hash);

  // The directory reports matching metadata and the offline verify is clean.
  const TieredDirectoryInfo dir = ReadTieredDirectory(path);
  EXPECT_EQ(dir.version, 6u);
  EXPECT_EQ(dir.segments.size(), built.index->num_lists());
  const TieredVerifyResult verify = VerifyTieredSnapshot(path);
  EXPECT_GT(verify.checked, 0u);
  EXPECT_TRUE(verify.corrupt_lists.empty());
}

TEST_F(TierTest, FileSizeDisagreeingWithDirectoryRefusesToMap) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  // Append garbage: the size no longer matches the directory's last extent.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("xx", 2);
  }
  EXPECT_THROW(LoadTieredSnapshot(path, TieredStoreConfig{}), SnapshotError);
}

#if defined(__linux__) || defined(__APPLE__)
TEST_F(TierTest, SaveRefusesFileMappedByLiveIndex) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  {
    // The mapped loader holds a shared flock; rewriting under it must fail.
    const auto mapped = LoadTieredSnapshot(path, TieredStoreConfig{});
    EXPECT_THROW(SaveIndexSnapshot(*built.index, path), SnapshotError);
  }
  // Mapping gone, lock released: the rewrite goes through.
  SaveIndexSnapshot(*built.index, path);
  // And the loader refuses a file a live mapping still flocks, from the
  // other side: a concurrent second mapping is fine (shared lock).
  const auto a = LoadTieredSnapshot(path, TieredStoreConfig{});
  const auto b = LoadTieredSnapshot(path, TieredStoreConfig{});
  EXPECT_TRUE(a->tiered_store()->file().locked());
}
#endif

// Flips one bit inside the first non-empty payload segment of `path` and
// returns the victim list.
std::uint32_t CorruptFirstSegment(const std::string& path,
                                  std::uint64_t seed = 42) {
  const TieredDirectoryInfo dir = ReadTieredDirectory(path);
  for (const TieredSegmentInfo& seg : dir.segments) {
    if (seg.bytes == 0) continue;
    EXPECT_TRUE(FaultInjector::FlipBit(path, seg.offset, seg.bytes, seed));
    return seg.list;
  }
  ADD_FAILURE() << "no non-empty segment to corrupt";
  return 0;
}

// image_id -> exact distance over the whole partition: the "never a wrong
// answer" oracle for degraded queries.
std::map<ImageId, float> ExhaustiveDistances(const IvfIndex& index,
                                             FeatureView query) {
  std::map<ImageId, float> truth;
  for (const SearchHit& hit : index.SearchExhaustive(query, index.size())) {
    truth[hit.image_id] = hit.distance;
  }
  return truth;
}

TEST_F(TierTest, BitFlipQuarantinesAtFaultInAndQueriesDegradeCorrectly) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const std::uint32_t victim = CorruptFirstSegment(path);

  const auto mapped = LoadTieredSnapshot(path, TieredStoreConfig{});
  TieredListStore& store = *mapped->tiered_store_shared();
  ASSERT_TRUE(store.has_checksums());

  // The heap loader verifies during copy: corrupt file refuses to restore.
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
  // The offline verifier pins the same list.
  const TieredVerifyResult verify = VerifyTieredSnapshot(path);
  ASSERT_EQ(verify.corrupt_lists.size(), 1u);
  EXPECT_EQ(verify.corrupt_lists[0], victim);

  // Serving: every query completes; the corrupt list is quarantined on its
  // first fault-in and skipped after; no returned distance is ever wrong.
  std::uint32_t degraded_queries = 0;
  for (ProductId pid = 1; pid <= 40; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query = built.embedder.ExtractQuery(pid, record->category, pid);
    TierScanStats tstats;
    const auto hits =
        mapped->Search(query, 5, {.nprobe = 16, .tier_stats = &tstats});
    if (tstats.lists_quarantined > 0) ++degraded_queries;
    const auto truth = ExhaustiveDistances(*built.index, query);
    for (const SearchHit& hit : hits) {
      const auto it = truth.find(hit.image_id);
      ASSERT_NE(it, truth.end());
      // The IVF scan and the exhaustive oracle accumulate the same distance
      // through different float orderings; a corrupt payload would be off by
      // whole units, not ulps.
      EXPECT_NEAR(hit.distance, it->second, 0.01f);
    }
  }
  EXPECT_GT(degraded_queries, 0u);
  EXPECT_EQ(store.quarantined_lists(), 1u);
  EXPECT_TRUE(store.poisoned(victim));
  const TieredStoreStats stats = store.Stats();
  EXPECT_EQ(stats.quarantine_events, 1u);
  EXPECT_GT(stats.quarantine_skips, 0u);
  // Scrub agrees: the poisoned list is left alone, everything else is ok.
  EXPECT_EQ(store.ScrubList(victim),
            TieredListStore::ScrubStatus::kAlreadyQuarantined);
}

TEST_F(TierTest, ScrubFindsCorruptionBeforeAnyQueryTouchesIt) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const std::uint32_t victim = CorruptFirstSegment(path);

  const auto mapped = LoadTieredSnapshot(path, TieredStoreConfig{});
  TieredListStore& store = *mapped->tiered_store_shared();
  // No query has run; the scrub walk discovers the corruption cold.
  bool found = false;
  for (std::uint32_t i = 0; i < store.num_lists(); ++i) {
    const auto status = store.ScrubList(i);
    if (i == victim) {
      EXPECT_EQ(status, TieredListStore::ScrubStatus::kCorrupt);
      found = true;
    } else {
      EXPECT_NE(status, TieredListStore::ScrubStatus::kCorrupt);
      EXPECT_NE(status, TieredListStore::ScrubStatus::kIoError);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(store.poisoned(victim));
  // Queries after the scrub skip the poisoned list without ever faulting it.
  const auto record = built.catalog.Get(1);
  const auto query = built.embedder.ExtractQuery(1, record->category, 1);
  const auto hits = mapped->Search(query, 5, {.nprobe = 16});
  EXPECT_FALSE(hits.empty());
}

#if defined(__linux__)
TEST_F(TierTest, TruncationBehindMappingSurvivesAsQuarantine) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);

  const auto mapped = LoadTieredSnapshot(path, TieredStoreConfig{});
  TieredListStore& store = *mapped->tiered_store_shared();
  // Find a list whose extent will fall past the truncated EOF.
  const TieredDirectoryInfo dir = ReadTieredDirectory(path);
  const std::uintmax_t cut = std::filesystem::file_size(path) / 2;
  std::uint32_t victim = UINT32_MAX;
  for (const TieredSegmentInfo& seg : dir.segments) {
    if (seg.bytes > 0 && seg.offset + seg.bytes > cut) {
      victim = seg.list;
      break;
    }
  }
  ASSERT_NE(victim, UINT32_MAX);

  // Truncate the file behind the live mapping (an flock is advisory: a
  // hostile actor — or a full disk — does not ask), then force re-faults.
  store.DropResidency();
  std::filesystem::resize_file(path, cut);

  // The guarded fault-in takes the SIGBUS, quarantines, and the query path
  // survives: the pin simply skips the victim.
  TierScanStats stats;
  const std::uint32_t probes[] = {victim};
  {
    const auto guard = store.Pin(probes, 0, &stats);
    EXPECT_EQ(guard.num_pinned(), 0u);
  }
  EXPECT_EQ(stats.lists_quarantined, 1u);
  EXPECT_TRUE(store.poisoned(victim));
  EXPECT_GT(store.Stats().io_errors, 0u);

  // End-to-end: searches still complete (lists before the cut still serve).
  const auto record = built.catalog.Get(1);
  const auto query = built.embedder.ExtractQuery(1, record->category, 1);
  const auto hits = mapped->Search(query, 5, {.nprobe = 16});
  EXPECT_FALSE(hits.empty());
}
#endif

TEST_F(TierTest, FailNextFaultInInjectsOneQuarantine) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);

  FaultInjector injector(7);
  TieredStoreConfig config;
  config.fault_injector = &injector;
  config.node_name = "searcher-under-test";
  const auto mapped = LoadTieredSnapshot(path, config);
  TieredListStore& store = *mapped->tiered_store_shared();

  StorageFaults faults;
  faults.fail_next_fault_in = true;
  injector.SetStorage("searcher-under-test", faults);

  // First cold fault-in fails (one-shot); later fault-ins are clean.
  const auto record = built.catalog.Get(1);
  const auto query = built.embedder.ExtractQuery(1, record->category, 1);
  TierScanStats tstats;
  const auto hits =
      mapped->Search(query, 5, {.nprobe = 16, .tier_stats = &tstats});
  EXPECT_FALSE(hits.empty());
  EXPECT_EQ(store.quarantined_lists(), 1u);
  EXPECT_EQ(injector.storage_faults_injected(), 1u);
  EXPECT_GE(tstats.lists_quarantined, 1u);

  // The rest of the store still faults in and serves normally.
  for (ProductId pid = 2; pid <= 10; ++pid) {
    const auto r = built.catalog.Get(pid);
    const auto q = built.embedder.ExtractQuery(pid, r->category, pid);
    EXPECT_FALSE(mapped->Search(q, 5, {.nprobe = 16}).empty());
  }
  EXPECT_EQ(store.quarantined_lists(), 1u);  // no further poisoning
}

TEST_F(TierTest, ConcurrentScrubAndServingScans) {
  // TSan target: a scrubber walking checksums through pread while serving
  // threads pin/fault/evict the same lists through the mapping.
  const std::string path = PathFor("payload.bin");
  auto extents = WriteSyntheticPayload(path, 8);
  std::vector<std::uint32_t> checksums;
  {
    const MmapFile probe = MmapFile::Open(path);
    for (const auto& extent : extents) {
      checksums.push_back(Crc32c(probe.data() + extent.offset,
                                 static_cast<std::size_t>(extent.bytes)));
    }
  }
  obs::Registry registry;
  TieredStoreConfig config;
  config.resident_bytes_budget = 2 * kSynListBytes;  // constant eviction
  config.registry = &registry;
  auto store = std::make_shared<TieredListStore>(
      MmapFile::Open(path), std::move(extents), std::move(checksums), config);

  TierScrubConfig sc;
  sc.poll_micros = 100;
  sc.lists_per_slice = 8;
  sc.registry = &registry;
  TierScrubber scrubber([&store] { return store; }, sc);
  scrubber.Start();

  std::atomic<int> bad_bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&store, &bad_bytes, t] {
      for (int i = 0; i < 300; ++i) {
        const std::uint32_t probes[] = {
            static_cast<std::uint32_t>((i + t) % 8),
            static_cast<std::uint32_t>((i * 5 + 2 * t) % 8)};
        const auto guard = store->Pin(probes, 0, nullptr);
        for (const std::uint32_t list : guard.pinned()) {
          const auto extent = store->extent(list);
          const std::uint8_t* data = store->file().data() + extent.offset;
          const auto want = static_cast<std::uint8_t>(list * 17 + 1);
          if (data[0] != want || data[extent.bytes - 1] != want) {
            bad_bytes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  scrubber.Stop();
  EXPECT_EQ(bad_bytes.load(), 0);
  EXPECT_GT(scrubber.lists_scrubbed(), 0u);
  EXPECT_EQ(scrubber.corrupt_found(), 0u);
  EXPECT_EQ(store->quarantined_lists(), 0u);
}

}  // namespace
}  // namespace jdvs
