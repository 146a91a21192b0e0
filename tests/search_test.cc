// Tests for the search tier: hit merging, ranking, searcher, broker
// failover, blender end-to-end on a hand-built mini-cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "index/full_index_builder.h"
#include "net/fault_injector.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "qos/deadline.h"
#include "search/blender.h"
#include "search/broker.h"
#include "search/cluster_builder.h"
#include "search/ranking.h"
#include "search/searcher.h"
#include "search/types.h"
#include "vecmath/kernels.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

SearchHit Hit(ImageId id, float distance, std::uint64_t sales = 0) {
  SearchHit hit;
  hit.image_id = id;
  hit.distance = distance;
  hit.attributes.sales = sales;
  return hit;
}

// ---- The packed list the tiers ship, and its merge. ----

HitList ListOf(std::initializer_list<SearchHit> hits) {
  HitList list;
  for (const SearchHit& hit : hits) list.Append(hit);
  return list;
}

SearchHit FullHit(ImageId id, float distance, std::string image_url,
                  std::string detail_url) {
  SearchHit hit;
  hit.image_id = id;
  hit.distance = distance;
  hit.product_id = id * 10;
  hit.category = static_cast<CategoryId>(id % 6);
  hit.attributes = {.sales = id, .price_cents = id + 1, .praise = id + 2};
  hit.image_url = std::move(image_url);
  hit.detail_url = std::move(detail_url);
  return hit;
}

void ExpectSameHit(const SearchHit& got, const SearchHit& want) {
  EXPECT_EQ(got.image_id, want.image_id);
  EXPECT_EQ(got.distance, want.distance);
  EXPECT_EQ(got.product_id, want.product_id);
  EXPECT_EQ(got.category, want.category);
  EXPECT_EQ(got.attributes, want.attributes);
  EXPECT_EQ(got.image_url, want.image_url);
  EXPECT_EQ(got.detail_url, want.detail_url);
}

std::vector<ImageId> IdsOf(const HitList& list) {
  std::vector<ImageId> ids;
  for (std::size_t i = 0; i < list.size(); ++i) ids.push_back(list[i].image_id);
  return ids;
}

TEST(MergeHitListsTest, MergesAndTruncates) {
  const std::vector<HitList> lists = {
      ListOf({Hit(1, 1.f), Hit(2, 4.f)}),
      ListOf({Hit(3, 2.f), Hit(4, 5.f)}),
      ListOf({Hit(5, 3.f)}),
  };
  EXPECT_EQ(IdsOf(MergeHitLists(lists, 3)), (std::vector<ImageId>{1, 3, 5}));
}

TEST(MergeHitListsTest, DeduplicatesSameImage) {
  const std::vector<HitList> lists = {
      ListOf({FullHit(1, 1.f, "jd://img/1/0", "first"), Hit(2, 2.f)}),
      // A replica returned the same image.
      ListOf({FullHit(1, 1.f, "jd://img/1/0", "second"), Hit(3, 3.f)}),
  };
  const HitList merged = MergeHitLists(lists, 4);
  EXPECT_EQ(IdsOf(merged), (std::vector<ImageId>{1, 2, 3}));
  EXPECT_EQ(merged.detail_url(0), "first");  // the first list's row is kept
}

TEST(MergeHitListsTest, EmptyInputs) {
  EXPECT_TRUE(MergeHitLists({}, 5).empty());
  const std::vector<HitList> empties(2);
  EXPECT_TRUE(MergeHitLists(empties, 5).empty());
}

TEST(MergeHitListsTest, DistanceTiesBrokenByImageId) {
  const std::vector<HitList> lists = {
      ListOf({Hit(9, 1.f), Hit(4, 2.f)}),
      ListOf({Hit(7, 1.f), Hit(2, 2.f)}),
  };
  EXPECT_EQ(IdsOf(MergeHitLists(lists, 3)), (std::vector<ImageId>{7, 9, 2}));
}

TEST(MergeHitListsTest, KLargerThanAllInputs) {
  const std::vector<HitList> lists = {
      ListOf({Hit(1, 3.f)}),
      ListOf({Hit(2, 1.f), Hit(3, 2.f)}),
  };
  EXPECT_EQ(IdsOf(MergeHitLists(lists, 100)),
            (std::vector<ImageId>{2, 3, 1}));
}

TEST(HitListTest, RowsKeepEveryFieldAndUrl) {
  const std::string long_url =
      "jd://img/123456789/12345678901234567890";  // past the inline buffer
  const std::vector<SearchHit> hits = {
      FullHit(1, 0.5f, "jd://img/1/0", ""),  // empty detail URL
      FullHit(2, 0.25f, long_url, "jd://item/2"),
      FullHit(3, 0.75f, "", "jd://item/3?v=2"),
  };
  HitList list;
  for (const SearchHit& hit : hits) list.Append(hit);
  ASSERT_EQ(list.size(), hits.size());
  EXPECT_EQ(list.detail_url(0), "");
  EXPECT_EQ(list.image_url(1), long_url);
  EXPECT_EQ(list.image_url(2), "");
  const std::vector<SearchHit> unpacked = list.Unpack();
  ASSERT_EQ(unpacked.size(), hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ExpectSameHit(unpacked[i], hits[i]);
  }
}

TEST(MergeHitListsTest, MergedListOutlivesItsInputs) {
  const std::string long_url = "jd://img/987654321/123456789012345";
  HitList merged;
  {
    std::vector<HitList> lists(2);
    lists[0].Append(FullHit(1, 2.f, long_url, ""));
    lists[1].Append(FullHit(2, 1.f, "jd://img/2/0", long_url + "/detail"));
    lists[1].Append(FullHit(3, 3.f, "jd://img/3/0", "jd://item/3"));
    merged = MergeHitLists(lists, 2);
  }  // the inputs and their URL buffers are gone
  const std::vector<SearchHit> hits = merged.Unpack();
  ASSERT_EQ(hits.size(), 2u);
  ExpectSameHit(hits[0], FullHit(2, 1.f, "jd://img/2/0", long_url + "/detail"));
  ExpectSameHit(hits[1], FullHit(1, 2.f, long_url, ""));
}

// The SearchHit adapter gives the list merge's answer, field for field.
TEST(MergeHitListsTest, MergeHitsAdapterMatchesListMerge) {
  const std::vector<std::vector<SearchHit>> partials = {
      {FullHit(5, 1.f, "jd://img/5/0", "jd://item/5"),
       FullHit(6, 2.f, "jd://img/6/0", "")},
      {FullHit(5, 1.f, "jd://img/5/0", "jd://item/5"),
       FullHit(4, 2.f, "jd://img/4/0", "jd://item/4")},
  };
  std::vector<HitList> lists;
  for (const auto& partial : partials) {
    lists.emplace_back();
    for (const SearchHit& hit : partial) lists.back().Append(hit);
  }
  const std::vector<SearchHit> via_adapter = MergeHits(partials, 3);
  const std::vector<SearchHit> via_list = MergeHitLists(lists, 3).Unpack();
  ASSERT_EQ(via_adapter.size(), 2u);
  ASSERT_EQ(via_list.size(), via_adapter.size());
  for (std::size_t i = 0; i < via_list.size(); ++i) {
    ExpectSameHit(via_adapter[i], via_list[i]);
  }
  EXPECT_EQ(via_list[1].image_id, 4u);
}

TEST(RankingTest, SimilarityDominates) {
  const RankingConfig config;
  const SearchHit close = Hit(1, 0.1f, /*sales=*/0);
  const SearchHit far = Hit(2, 50.f, /*sales=*/100000);
  EXPECT_GT(RankScore(close, 0, config), RankScore(far, 0, config));
}

TEST(RankingTest, AttributesBreakTies) {
  const RankingConfig config;
  SearchHit poor = Hit(1, 1.0f);
  SearchHit popular = Hit(2, 1.0f);
  popular.attributes.sales = 10000;
  popular.attributes.praise = 5000;
  EXPECT_GT(RankScore(popular, 0, config), RankScore(poor, 0, config));
}

TEST(RankingTest, PricePenalizes) {
  const RankingConfig config;
  SearchHit cheap = Hit(1, 1.0f);
  cheap.attributes.price_cents = 100;
  SearchHit expensive = Hit(2, 1.0f);
  expensive.attributes.price_cents = 10'000'000;
  EXPECT_GT(RankScore(cheap, 0, config), RankScore(expensive, 0, config));
}

TEST(RankingTest, CategoryMatchBoosts) {
  const RankingConfig config;
  SearchHit match = Hit(1, 1.0f);
  match.category = 7;
  SearchHit other = Hit(2, 1.0f);
  other.category = 3;
  EXPECT_GT(RankScore(match, 7, config), RankScore(other, 7, config));
}

TEST(RankingTest, RankResultsSortsDescendingAndTruncates) {
  std::vector<SearchHit> hits = {Hit(1, 5.f), Hit(2, 0.1f), Hit(3, 1.f)};
  const auto ranked = RankResults(std::move(hits), 0, RankingConfig{}, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].hit.image_id, 2u);
  EXPECT_EQ(ranked[1].hit.image_id, 3u);
  EXPECT_GE(ranked[0].score, ranked[1].score);
}

// ---- Mini-cluster fixture: 2 searchers (disjoint fake partitions), one
// broker, one blender. ----
struct MiniCluster {
  MiniCluster()
      : embedder({.dim = 16, .num_categories = 6, .seed = 3}),
        detector({.num_categories = 6, .top1_accuracy = 1.0}),
        features(embedder, ExtractionCostModel{.mean_micros = 0}) {
    CatalogGenConfig cg;
    cg.num_products = 60;
    cg.num_categories = 6;
    GenerateCatalog(cg, catalog, images);

    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 6;
    fc.index_config.nprobe = 6;
    FullIndexBuilder builder(catalog, images, features, fc);
    quantizer = builder.TrainQuantizer();

    const auto even = [](std::string_view url) {
      return Fnv1a64(url) % 2 == 0;
    };
    const auto odd = [](std::string_view url) {
      return Fnv1a64(url) % 2 == 1;
    };
    searcher_a = std::make_unique<Searcher>("s-a", Searcher::Config{},
                                            features, even);
    searcher_b = std::make_unique<Searcher>("s-b", Searcher::Config{},
                                            features, odd);
    searcher_a_backup = std::make_unique<Searcher>(
        "s-a2", Searcher::Config{}, features, even);
    searcher_a->InstallIndex(builder.Build(quantizer, even));
    searcher_b->InstallIndex(builder.Build(quantizer, odd));
    searcher_a_backup->InstallIndex(builder.Build(quantizer, even));

    broker = std::make_unique<Broker>("b-0", Broker::Config{});
    broker->AddPartition({searcher_a.get(), searcher_a_backup.get()});
    broker->AddPartition({searcher_b.get()});

    Blender::Config bc;
    bc.default_k = 6;
    blender = std::make_unique<Blender>("bl-0", bc, embedder, detector,
                                        std::vector<Broker*>{broker.get()});
  }

  QueryImage QueryFor(ProductId id, std::uint64_t seed = 1) {
    const auto record = catalog.Get(id);
    return QueryImage{id, record->category, seed};
  }

  SyntheticEmbedder embedder;
  CategoryDetector detector;
  ProductCatalog catalog;
  ImageStore images;
  FeatureDb features;
  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::unique_ptr<Searcher> searcher_a;
  std::unique_ptr<Searcher> searcher_a_backup;
  std::unique_ptr<Searcher> searcher_b;
  std::unique_ptr<Broker> broker;
  std::unique_ptr<Blender> blender;
};

void ExpectSameHitList(const std::vector<SearchHit>& got,
                       const std::vector<SearchHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].image_id, want[i].image_id);
    EXPECT_EQ(got[i].distance, want[i].distance);
    EXPECT_EQ(got[i].image_url, want[i].image_url);
    EXPECT_EQ(got[i].attributes, want[i].attributes);
  }
}

TEST(SearcherTest, SearchBeforeInstallThrows) {
  SyntheticEmbedder embedder({.dim = 8, .num_categories = 2, .seed = 1});
  FeatureDb features(embedder, {.mean_micros = 0});
  Searcher searcher("empty", Searcher::Config{}, features,
                    AcceptAllPartitionFilter());
  EXPECT_FALSE(searcher.HasIndex());
  EXPECT_THROW(searcher.SearchLocal(FeatureVector(8, 0.f), 5),
               std::runtime_error);
}

// The positional SearchLocal form the repository benchmark calls conjoins
// the category to the filter exactly as a WithCategory term does, and
// kNoCategoryFilter leaves the filter as it is.
TEST(SearcherTest, PositionalCategoryFormForwardsToFilterTerm) {
  MiniCluster mini;
  FilterExpression sales;
  sales.WithMin(FilterField::kSales, 0);
  for (ProductId id = 1; id <= 12; ++id) {
    const auto record = mini.catalog.Get(id);
    const auto query =
        mini.embedder.ExtractQuery(record->id, record->category, id);
    FilterExpression scoped = sales;
    scoped.WithCategory(record->category);
    FilterScanStats positional_stats;
    FilterScanStats term_stats;
    const auto positional = mini.searcher_a->SearchLocal(
        query, 5, 0, record->category, sales, &positional_stats);
    ASSERT_FALSE(positional.empty());
    ExpectSameHitList(positional,
                      mini.searcher_a->SearchLocal(
                          query, 5,
                          {.filter = &scoped, .filter_stats = &term_stats}));
    EXPECT_EQ(positional_stats.strategy, term_stats.strategy);
    EXPECT_EQ(positional_stats.selectivity_bp, term_stats.selectivity_bp);
    ExpectSameHitList(
        mini.searcher_a->SearchLocal(query, 5, 0, kNoCategoryFilter, sales,
                                     nullptr),
        mini.searcher_a->SearchLocal(query, 5, {.filter = &sales}));
  }
}

TEST(SearcherTest, SearchAsyncReturnsPartitionResults) {
  MiniCluster mini;
  const auto record = mini.catalog.Get(10);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 1);
  auto hits_a = mini.searcher_a->SearchAsync(query, 10).get();
  auto hits_b = mini.searcher_b->SearchAsync(query, 10).get();
  EXPECT_FALSE(hits_a.empty() && hits_b.empty());
  // All of searcher A's results belong to its partition.
  for (const auto& hit : hits_a) {
    EXPECT_EQ(Fnv1a64(hit.image_url) % 2, 0u);
  }
  for (const auto& hit : hits_b) {
    EXPECT_EQ(Fnv1a64(hit.image_url) % 2, 1u);
  }
}

TEST(SearcherTest, ApplyUpdateMakesProductSearchable) {
  MiniCluster mini;
  ProductUpdateMessage add;
  add.type = UpdateType::kAddProduct;
  add.product_id = 5000;
  add.category_id = 2;
  add.attributes = {.sales = 1, .price_cents = 1, .praise = 1};
  for (std::uint32_t k = 0; k < 4; ++k) {
    add.image_urls.push_back(MakeImageUrl(5000, k));
  }
  mini.searcher_a->ApplyUpdate(add);
  mini.searcher_b->ApplyUpdate(add);
  const auto query = mini.embedder.ExtractQuery(5000, 2, 9);
  auto hits_a = mini.searcher_a->SearchLocal(query, 4);
  auto hits_b = mini.searcher_b->SearchLocal(query, 4);
  std::size_t found = 0;
  for (const auto& h : hits_a) found += (h.product_id == 5000u);
  for (const auto& h : hits_b) found += (h.product_id == 5000u);
  EXPECT_GT(found, 0u);
  // Partition split: the 4 images are spread over both searchers, total 4.
  const auto counters_a = mini.searcher_a->update_counters();
  const auto counters_b = mini.searcher_b->update_counters();
  EXPECT_EQ(counters_a.images_added + counters_b.images_added, 4u);
}

TEST(SearcherTest, InstallIndexSwapsUnderSearches) {
  MiniCluster mini;
  // Rebuild searcher A's index and install; old searches still complete.
  FullIndexBuilderConfig fc;
  fc.kmeans.num_clusters = 6;
  FullIndexBuilder builder(mini.catalog, mini.images, mini.features, fc);
  const auto even = [](std::string_view url) { return Fnv1a64(url) % 2 == 0; };
  auto new_index = builder.Build(mini.quantizer, even);
  const std::size_t new_size = new_index->size();
  mini.searcher_a->InstallIndex(std::move(new_index));
  EXPECT_EQ(mini.searcher_a->index_stats().total_images, new_size);
}

TEST(SearcherTest, ConcurrentAsyncMatchesSearchLocal) {
  MiniCluster mini;
  Searcher::Config config;
  config.threads = 4;
  Searcher searcher("s-4", config, mini.features, AcceptAllPartitionFilter());
  FullIndexBuilderConfig fc;
  fc.kmeans.num_clusters = 6;
  fc.index_config.nprobe = 6;
  FullIndexBuilder builder(mini.catalog, mini.images, mini.features, fc);
  searcher.InstallIndex(
      builder.Build(mini.quantizer, AcceptAllPartitionFilter()));

  constexpr std::size_t kQueries = 24;
  std::vector<FeatureVector> queries;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const ProductId pid = 1 + (i % 60);
    queries.push_back(mini.embedder.ExtractQuery(
        pid, mini.catalog.Get(pid)->category, /*seed=*/i + 1));
  }
  // Dispatch everything before joining anything, so scans overlap on the
  // pool; each answer equals the in-process one, bit for bit.
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (const FeatureVector& query : queries) {
    futures.push_back(searcher.SearchAsync(query, /*k=*/5));
  }
  for (std::size_t i = 0; i < kQueries; ++i) {
    ExpectSameHitList(futures[i].get(),
                      searcher.SearchLocal(queries[i], /*k=*/5));
  }
}

// A tiered partition under a deadline gives cold-list faults half the
// remaining budget: on a slow disk (20 ms per fault-in) a 30 ms query keeps
// its first probe and drops the rest instead of spending 6 x 20 ms, while
// the same query without a deadline faults in every probe.
TEST(SearcherTest, DeadlineBoundsTieredFaultTime) {
  MiniCluster mini;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("jdvs_io_budget_" + std::to_string(::getpid()) + ".snap"))
          .string();
  mini.searcher_a->SaveIndexSnapshot(path);
  {
    obs::Registry registry;
    FaultInjector injector(/*seed=*/1);
    injector.SetStorage("s-tiered",
                        StorageFaults{.fault_in_delay_micros = 20'000});
    Searcher::Config config;
    config.registry = &registry;
    config.fault_injector = &injector;
    Searcher tiered("s-tiered", config, mini.features,
                    mini.searcher_a->partition_filter());
    tiered.InstallFromTieredSnapshot(path, /*resident_budget_bytes=*/1);
    const obs::Counter& dropped =
        registry.GetCounter("jdvs_tier_probes_dropped_total");

    const auto record = mini.catalog.Get(10);
    const auto query =
        mini.embedder.ExtractQuery(record->id, record->category, 1);
    const auto deadline =
        qos::Deadline::FromBudget(MonotonicClock::Instance(), 30'000);
    EXPECT_FALSE(
        tiered.SearchAsync(query, /*k=*/5, {.deadline = deadline})
            .get()
            .empty());
    const std::uint64_t dropped_under_deadline = dropped.Value();
    EXPECT_GT(dropped_under_deadline, 0u);

    EXPECT_FALSE(tiered.SearchAsync(query, /*k=*/5).get().empty());
    EXPECT_EQ(dropped.Value(), dropped_under_deadline);
  }
  std::filesystem::remove(path);
}

TEST(BrokerTest, MergesAcrossPartitions) {
  MiniCluster mini;
  const auto record = mini.catalog.Get(20);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 2);
  const auto hits = mini.broker->SearchAsync(query, 10).get();
  ASSERT_FALSE(hits.empty());
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
  // Top hit should be an image of the queried product.
  EXPECT_EQ(hits[0].product_id, record->id);
}

TEST(BrokerTest, FailsOverToReplica) {
  MiniCluster mini;
  mini.searcher_a->node().set_failed(true);
  const auto record = mini.catalog.Get(20);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 2);
  const auto hits = mini.broker->SearchAsync(query, 10).get();
  EXPECT_FALSE(hits.empty());
  EXPECT_GE(mini.broker->failovers(), 1u);
  EXPECT_EQ(mini.broker->partition_failures(), 0u);
}

TEST(BrokerTest, PartitionFailureWhenAllReplicasDown) {
  MiniCluster mini;
  mini.searcher_b->node().set_failed(true);  // partition B has no replica
  const auto record = mini.catalog.Get(20);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 2);
  const auto hits = mini.broker->SearchAsync(query, 10).get();
  // Partial results: partition A still answers.
  EXPECT_GE(mini.broker->partition_failures(), 1u);
  for (const auto& hit : hits) {
    EXPECT_EQ(Fnv1a64(hit.image_url) % 2, 0u);
  }
}

// A tiered replica of MiniCluster's partition A whose every fault-in fails:
// each scan quarantines or skips the lists it probes, so every answer it
// gives is marked degraded.
class FailingTieredReplica {
 public:
  FailingTieredReplica(MiniCluster& mini, FaultInjector& injector)
      : path_((std::filesystem::temp_directory_path() /
               ("jdvs_failing_tier_" + std::to_string(::getpid()) + ".snap"))
                  .string()) {
    mini.searcher_a->SaveIndexSnapshot(path_);
    injector.SetStorage("s-tiered-bad",
                        StorageFaults{.fault_in_error_probability = 1.0});
    Searcher::Config config;
    config.fault_injector = &injector;
    searcher_ = std::make_unique<Searcher>("s-tiered-bad", config,
                                           mini.features,
                                           mini.searcher_a->partition_filter());
    searcher_->InstallFromTieredSnapshot(path_, /*resident_budget_bytes=*/1);
  }
  ~FailingTieredReplica() {
    searcher_.reset();
    std::filesystem::remove(path_);
  }
  FailingTieredReplica(const FailingTieredReplica&) = delete;
  FailingTieredReplica& operator=(const FailingTieredReplica&) = delete;

  Searcher& searcher() { return *searcher_; }

 private:
  std::string path_;
  std::unique_ptr<Searcher> searcher_;
};

// The broker's full reply (the future facade returns only the hits).
Broker::Reply SearchForReply(Broker& broker, FeatureVector query) {
  auto [done, reply] = PromiseCallback<Broker::Reply>();
  broker.SearchAsync(std::move(query), /*k=*/10, {}, std::move(done));
  return reply.get();
}

// A 2 ms attempt timeout answers the slot while the searcher's request hop
// still has 28 ms to go, so the fan-out finishes and frees its state before
// the scan runs. The late filtered scan must touch none of that state: its
// accounting rides in its own reply, which the timed-out call drops. (A scan
// that wrote through pointers into the fan-out state is a heap-use-after-free
// under ASan.)
TEST(BrokerTest, LateScanAfterAttemptTimeoutTouchesNoFanOutState) {
  FaultInjector injector(/*seed=*/5);
  MiniCluster mini;
  injector.SetNode(mini.searcher_b->name(),
                   LinkFaults{.added_latency_micros = 30'000});
  mini.searcher_b->node().set_fault_injector(&injector);
  Broker::Config bc;
  bc.rpc_timeout_micros = 2'000;
  Broker broker("b-timeout", bc);
  broker.AddPartition({mini.searcher_b.get()});

  const auto record = mini.catalog.Get(20);
  FilterExpression filter;
  filter.WithMin(FilterField::kSales, 0);
  const auto hits =
      broker
          .SearchAsync(mini.embedder.ExtractQuery(record->id,
                                                  record->category, 2),
                       /*k=*/10, {.filter = filter})
          .get();
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(broker.rpc_timeouts(), 1u);
  EXPECT_EQ(broker.partition_failures(), 1u);
  // Let the delayed scan run and its reply come back.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

// A searcher that skips quarantined lists marks its broker reply degraded,
// and the blender flags the response even though both partitions answered.
TEST(BlenderTest, QuarantineSkipMarksResponseDegraded) {
  FaultInjector injector(/*seed=*/6);
  MiniCluster mini;
  FailingTieredReplica tiered(mini, injector);
  Broker broker("b-tier", Broker::Config{});
  broker.AddPartition({&tiered.searcher()});
  broker.AddPartition({mini.searcher_b.get()});
  Blender::Config bc;
  bc.default_k = 6;
  Blender blender("bl-tier", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{&broker});

  const auto record = mini.catalog.Get(20);
  const Broker::Reply reply = SearchForReply(
      broker, mini.embedder.ExtractQuery(record->id, record->category, 2));
  EXPECT_EQ(reply.partitions_failed, 0u);
  EXPECT_GE(reply.tier_degraded, 1u);

  const QueryResponse response = blender.Search(mini.QueryFor(20));
  EXPECT_EQ(response.broker_failures, 0u);
  EXPECT_TRUE(response.degraded);
}

// The failing tiered replica is partition A's primary, 10 ms away; a fixed
// 1 ms hedge to its healthy heap sibling wins the slot. Partition B is 30 ms
// away, so the fan-out is still open when the loser's degraded scan runs.
// Only the winning attempt of a slot speaks for it: the reply is not
// degraded.
TEST(BrokerTest, LosingHedgeDoesNotMarkReplyDegraded) {
  FaultInjector injector(/*seed=*/7);
  MiniCluster mini;
  FailingTieredReplica tiered(mini, injector);
  injector.SetNode(tiered.searcher().name(),
                   LinkFaults{.added_latency_micros = 10'000});
  tiered.searcher().node().set_fault_injector(&injector);
  injector.SetNode(mini.searcher_b->name(),
                   LinkFaults{.added_latency_micros = 30'000});
  mini.searcher_b->node().set_fault_injector(&injector);
  Broker::Config bc;
  bc.enable_hedging = true;
  bc.hedge_delay_micros = 1'000;
  bc.hedge_rate_cap = 0.0;  // uncapped
  Broker broker("b-hedge", bc);
  // The rotation cursor starts at replica 0: the first fan-out's primary is
  // the tiered replica.
  broker.AddPartition({&tiered.searcher(), mini.searcher_a.get()});
  broker.AddPartition({mini.searcher_b.get()});

  const auto record = mini.catalog.Get(20);
  const Broker::Reply reply = SearchForReply(
      broker, mini.embedder.ExtractQuery(record->id, record->category, 2));
  ASSERT_EQ(broker.hedge_wins(), 1u);
  EXPECT_EQ(reply.partitions_failed, 0u);
  EXPECT_FALSE(reply.hits.empty());
  EXPECT_EQ(reply.tier_degraded, 0u);
}

TEST(BlenderTest, EndToEndQueryFindsSubject) {
  MiniCluster mini;
  const auto response = mini.blender->Search(mini.QueryFor(33));
  ASSERT_FALSE(response.results.empty());
  EXPECT_LE(response.results.size(), 6u);
  EXPECT_EQ(response.brokers_asked, 1u);
  EXPECT_EQ(response.broker_failures, 0u);
  EXPECT_GT(response.total_micros, 0);
  bool found = false;
  for (const auto& r : response.results) {
    if (r.hit.product_id == 33u) found = true;
  }
  EXPECT_TRUE(found);
  // Scores are descending.
  for (std::size_t i = 1; i < response.results.size(); ++i) {
    EXPECT_GE(response.results[i - 1].score, response.results[i].score);
  }
}

TEST(BlenderTest, DetectorOutputPropagates) {
  MiniCluster mini;
  const auto query = mini.QueryFor(12);
  const auto response = mini.blender->Search(query);
  EXPECT_EQ(response.detected_category, query.true_category);  // 100% detector
}

TEST(BlenderTest, AdmissionControlShedsExcessLoad) {
  MiniCluster mini;
  Blender::Config bc;
  bc.threads = 1;
  bc.default_k = 5;
  bc.query_extraction_micros = 20'000;  // slow queries to pile up load
  bc.max_in_flight = 2;
  Blender limited("bl-limited", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{mini.broker.get()});
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        limited.SearchAsync(mini.QueryFor(1 + i), QueryOptions{.k = 5}));
  }
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++ok;
    } catch (const BlenderOverloadedError&) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + shed, 10u);
  EXPECT_EQ(limited.queries_shed(), shed);
  EXPECT_EQ(limited.in_flight(), 0u);
}

// Regression: a query failing before the fan-out (blender node marked
// failed) must still release its admission slot. The old thread-per-tier
// path threw NodeFailedError before the in-flight guard existed, leaking a
// slot per failure until a recovered blender shed everything forever.
TEST(BlenderTest, FailedNodeReleasesAdmissionSlots) {
  MiniCluster mini;
  Blender::Config bc;
  bc.default_k = 5;
  bc.max_in_flight = 1;
  Blender limited("bl-failing", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{mini.broker.get()});
  limited.node().set_failed(true);
  // Sequential, so each failure must release its slot before the next query
  // is admitted: any leak turns the NodeFailedError into an overload shed.
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(limited.Search(mini.QueryFor(1 + i)), NodeFailedError);
  }
  EXPECT_EQ(limited.in_flight(), 0u);
  EXPECT_EQ(limited.queries_shed(), 0u);
  limited.node().set_failed(false);
  // Recovered: with max_in_flight = 1, a single leaked slot would shed this.
  const auto response = limited.Search(mini.QueryFor(7));
  EXPECT_FALSE(response.results.empty());
  EXPECT_EQ(limited.queries_shed(), 0u);
}

TEST(BlenderTest, NoAdmissionLimitByDefault) {
  MiniCluster mini;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        mini.blender->SearchAsync(mini.QueryFor(1 + i), QueryOptions{.k = 5}));
  }
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(mini.blender->queries_shed(), 0u);
}

TEST(SearcherTest, SnapshotSaveAndInstallRoundTrip) {
  MiniCluster mini;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("jdvs_searcher_snap_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const auto stats_before = mini.searcher_a->index_stats();
  mini.searcher_a->SaveIndexSnapshot(path);

  // A different searcher (same partition) installs from the snapshot.
  Searcher restored("s-restored", Searcher::Config{}, mini.features,
                    mini.searcher_a->partition_filter());
  restored.InstallFromSnapshot(path);
  EXPECT_EQ(restored.index_stats().total_images, stats_before.total_images);

  const auto record = mini.catalog.Get(25);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 4);
  const auto original = mini.searcher_a->SearchLocal(query, 5);
  const auto loaded = restored.SearchLocal(query, 5);
  ASSERT_EQ(original.size(), loaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].image_id, loaded[i].image_id);
  }
  std::filesystem::remove(path);
}

// A partition served from a mapped snapshot: one searcher saves it, a second
// installs it tiered — rows scanned in place from the file under a 1-byte
// residency budget — and answers like the searcher that wrote it, then keeps
// taking real-time updates past the file's high-water mark. Parameterized on
// how many queries the client keeps in flight: 1 joins each answer before
// the next query is sent, 4 overlaps four scans on the searcher's pool.
class MappedSnapshotSearcherTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MappedSnapshotSearcherTest, ServesPartitionFromMappedSnapshot) {
  MiniCluster mini;
  FullIndexBuilderConfig fc;
  fc.kmeans.num_clusters = 6;
  fc.index_config.nprobe = 6;
  FullIndexBuilder builder(mini.catalog, mini.images, mini.features, fc);
  Searcher::Config config;
  config.threads = 4;
  Searcher source("s-source", config, mini.features,
                  AcceptAllPartitionFilter());
  source.InstallIndex(builder.Build(mini.quantizer, AcceptAllPartitionFilter()),
                      /*update_hwm=*/17);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("jdvs_mapped_install_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam()) + ".snap"))
          .string();
  source.SaveIndexSnapshot(path);
  {
    Searcher mapped("s-mapped", config, mini.features,
                    AcceptAllPartitionFilter());
    mapped.InstallFromTieredSnapshot(path, /*resident_budget_bytes=*/1);
    EXPECT_EQ(mapped.applied_sequence(), 17u);
    // Queries for products 1..24 in waves of GetParam(), every query of a
    // wave dispatched before any is joined.
    const std::size_t in_flight = GetParam();
    std::vector<FeatureVector> queries;
    for (ProductId pid = 1; pid <= 24; ++pid) {
      queries.push_back(mini.embedder.ExtractQuery(
          pid, mini.catalog.Get(pid)->category, /*seed=*/pid));
    }
    for (std::size_t begin = 0; begin < queries.size(); begin += in_flight) {
      const std::size_t end = std::min(queries.size(), begin + in_flight);
      std::vector<std::future<std::vector<SearchHit>>> futures;
      for (std::size_t i = begin; i < end; ++i) {
        futures.push_back(mapped.SearchAsync(queries[i], /*k=*/5));
      }
      for (std::size_t i = begin; i < end; ++i) {
        ExpectSameHitList(futures[i - begin].get(),
                          source.SearchLocal(queries[i], /*k=*/5));
      }
    }

    ProductUpdateMessage add;
    add.type = UpdateType::kAddProduct;
    add.product_id = 5000;
    add.category_id = 2;
    add.attributes = {.sales = 7, .price_cents = 300, .praise = 2};
    add.image_urls = {MakeImageUrl(5000, 0), MakeImageUrl(5000, 1)};
    add.sequence = 18;
    ASSERT_TRUE(mapped.ApplyUpdate(add));
    EXPECT_EQ(mapped.applied_sequence(), 18u);
    const auto hits =
        mapped.SearchAsync(mini.embedder.ExtractQuery(5000, 2, /*seed=*/3), 3)
            .get();
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].product_id, 5000u);
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(InFlight, MappedSnapshotSearcherTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(BlenderTest, CategoryFilterNarrowsResults) {
  MiniCluster mini;
  Blender::Config bc;
  bc.default_k = 10;
  bc.use_category_filter = true;  // detector output scopes the scan
  Blender scoped("bl-scoped", bc, mini.embedder, mini.detector,
                 std::vector<Broker*>{mini.broker.get()});
  const QueryImage query = mini.QueryFor(14, 2);
  const auto response = scoped.Search(query);
  ASSERT_FALSE(response.results.empty());
  for (const auto& r : response.results) {
    EXPECT_EQ(r.hit.category, response.detected_category);
  }
  // The subject is still found (detector is 100% accurate in this fixture).
  bool found = false;
  for (const auto& r : response.results) {
    found |= (r.hit.product_id == 14u);
  }
  EXPECT_TRUE(found);
}

TEST(BlenderTest, ExplicitCategoryFilterInOptions) {
  MiniCluster mini;
  const auto record = mini.catalog.Get(14);
  QueryOptions qo;
  qo.k = 10;
  // Filter to a *different* category: the subject must not appear.
  const CategoryId other = (record->category + 1) % 6;
  qo.filter.WithCategory(other);
  const auto response = mini.blender->Search(mini.QueryFor(14, 2), qo);
  for (const auto& r : response.results) {
    EXPECT_EQ(r.hit.category, other);
    EXPECT_NE(r.hit.product_id, 14u);
  }
}

// A category scope is one filter term whichever way it arrives: set in
// QueryOptions::filter or added by a blender from its detector, the
// cluster's answer is the merge of every partition's SearchLocal answer
// under the same nprobe and filter, ranked as the blender ranks, and every
// hit is in the category.
TEST(BlenderTest, CategoryScopeMatchesPartitionOracle) {
  MiniCluster mini;
  const QueryImage query = mini.QueryFor(14, 2);
  const CategoryId category = query.true_category;
  constexpr std::size_t kK = 5;
  QueryOptions scoped{.k = kK};
  scoped.filter.WithCategory(category);
  const QueryResponse explicit_answer = mini.blender->Search(query, scoped);

  Blender::Config bc;
  bc.use_category_filter = true;
  Blender detecting("bl-detect", bc, mini.embedder, mini.detector,
                    std::vector<Broker*>{mini.broker.get()});
  const QueryResponse detected_answer =
      detecting.Search(query, QueryOptions{.k = kK});
  ASSERT_EQ(detected_answer.detected_category, category);

  // The blender fetches 2k from below, then ranks and keeps k.
  FilterExpression filter;
  filter.WithCategory(category);
  const FeatureVector feature = mini.embedder.ExtractQuery(
      query.subject_product, query.true_category, query.query_seed);
  std::vector<std::vector<SearchHit>> partials;
  for (const Searcher* searcher :
       {mini.searcher_a.get(), mini.searcher_b.get()}) {
    partials.push_back(
        searcher->SearchLocal(feature, 2 * kK, {.filter = &filter}));
  }
  const std::vector<RankedResult> want =
      RankResults(MergeHits(std::move(partials), 2 * kK), category,
                  RankingConfig{}, kK);
  ASSERT_EQ(want.size(), kK);
  for (const QueryResponse* got : {&explicit_answer, &detected_answer}) {
    EXPECT_FALSE(got->degraded);
    ASSERT_EQ(got->results.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameHit(got->results[i].hit, want[i].hit);
      EXPECT_EQ(got->results[i].hit.category, category);
    }
  }
}

// The blender's answer equals the partition oracle field for field — every
// partition's SearchLocal answer under the same filter, merged and ranked as
// the blender ranks — so nothing is lost or mixed up between the rows and
// URL bytes the tiers ship. Four cases: unfiltered, a broad filter (direct
// post mode, no bitmap), a narrow filter (bitmap), and an unfiltered query
// after a real-time update changed the subject's attributes and detail URL.
TEST(BlenderTest, AnswersMatchPartitionOracleFieldForField) {
  MiniCluster mini;
  constexpr std::size_t kK = 5;
  std::vector<std::uint64_t> sales;
  for (ProductId id = 1; id <= 60; ++id) {
    sales.push_back(mini.catalog.Get(id)->attributes.sales);
  }
  std::sort(sales.begin(), sales.end());
  FilterExpression broad;
  broad.WithMin(FilterField::kSales, sales[sales.size() * 30 / 100]);
  FilterExpression narrow;
  narrow.WithMin(FilterField::kSales, sales[sales.size() * 80 / 100]);

  // Product 14's attributes and detail URL once every replica applied it.
  ProductUpdateMessage update;
  update.type = UpdateType::kAttributeUpdate;
  update.product_id = 14;
  update.attributes = {.sales = 4242, .price_cents = 1999, .praise = 77};
  update.detail_url = "jd://item/14?rev=2&campaign=autumn";
  bool updated = false;

  const auto check = [&](const QueryImage& query,
                         const FilterExpression& filter,
                         FilterScanStats::Strategy strategy, bool estimated) {
    QueryOptions options{.k = kK};
    options.filter = filter;
    const QueryResponse got = mini.blender->Search(query, options);
    const FeatureVector feature = mini.embedder.ExtractQuery(
        query.subject_product, query.true_category, query.query_seed);
    std::vector<std::vector<SearchHit>> partials;
    for (const Searcher* searcher :
         {mini.searcher_a.get(), mini.searcher_b.get()}) {
      FilterScanStats stats;
      partials.push_back(searcher->SearchLocal(
          feature, 2 * kK, {.filter = &filter, .filter_stats = &stats}));
      EXPECT_EQ(stats.strategy, strategy);
      EXPECT_EQ(stats.estimated, estimated);
    }
    const std::vector<RankedResult> want =
        RankResults(MergeHits(std::move(partials), 2 * kK),
                    got.detected_category, RankingConfig{}, kK);
    EXPECT_FALSE(got.degraded);
    EXPECT_EQ(got.degradation_level, 0);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(got.results.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.results.size(), want.size());
         ++i) {
      SCOPED_TRACE(i);
      ExpectSameHit(got.results[i].hit, want[i].hit);
      EXPECT_EQ(got.results[i].score, want[i].score);
    }
    // The oracle shares the list code with the serving path, so also check
    // every hit against the catalog the index was built from.
    for (const RankedResult& result : got.results) {
      const SearchHit& hit = result.hit;
      const auto record = mini.catalog.Get(hit.product_id);
      EXPECT_TRUE(record.has_value());
      if (!record) continue;
      const bool changed = updated && hit.product_id == update.product_id;
      EXPECT_EQ(hit.image_id, Fnv1a64(hit.image_url));
      EXPECT_NE(std::ranges::find(record->image_urls, hit.image_url),
                record->image_urls.end());
      EXPECT_EQ(hit.category, record->category);
      EXPECT_EQ(hit.attributes,
                changed ? update.attributes : record->attributes);
      EXPECT_EQ(hit.detail_url,
                changed ? update.detail_url : record->detail_url);
    }
    return got;
  };
  using Strategy = FilterScanStats::Strategy;
  const QueryImage query = mini.QueryFor(14, 2);
  {
    SCOPED_TRACE("unfiltered");
    check(query, {}, Strategy::kNone, false);
  }
  {
    SCOPED_TRACE("broad filter");
    check(query, broad, Strategy::kPost, true);
  }
  {
    SCOPED_TRACE("narrow filter");
    check(query, narrow, Strategy::kPre, false);
  }

  // Every replica of every partition applies the update, as the message
  // queue would deliver it; each keeps only its own images.
  for (Searcher* searcher : {mini.searcher_a.get(),
                             mini.searcher_a_backup.get(),
                             mini.searcher_b.get()}) {
    ASSERT_TRUE(searcher->ApplyUpdate(update));
  }
  updated = true;
  SCOPED_TRACE("after a real-time update");
  const QueryResponse answer = check(query, {}, Strategy::kNone, false);
  EXPECT_TRUE(std::ranges::any_of(answer.results, [](const RankedResult& r) {
    return r.hit.product_id == 14u;
  }));
}

TEST(BlenderTest, MisdetectionWithFilterExcludesSubject) {
  MiniCluster mini;
  // A detector that is always wrong.
  CategoryDetector bad_detector({.num_categories = 6, .top1_accuracy = 0.0});
  Blender::Config bc;
  bc.default_k = 10;
  bc.use_category_filter = true;
  Blender scoped("bl-wrong", bc, mini.embedder, bad_detector,
                 std::vector<Broker*>{mini.broker.get()});
  const auto response = scoped.Search(mini.QueryFor(14, 2));
  for (const auto& r : response.results) {
    EXPECT_NE(r.hit.product_id, 14u);  // filtered out by the wrong category
  }
}

TEST(BlenderTest, ExplicitCategoryScopeOverridesDetector) {
  MiniCluster mini;
  // The detector is always wrong, but the query names its own category, so
  // the blender adds no second (conflicting) category term.
  CategoryDetector bad_detector({.num_categories = 6, .top1_accuracy = 0.0});
  Blender::Config bc;
  bc.use_category_filter = true;
  Blender scoped("bl-explicit", bc, mini.embedder, bad_detector,
                 std::vector<Broker*>{mini.broker.get()});
  const QueryImage query = mini.QueryFor(14, 2);
  QueryOptions qo{.k = 10};
  qo.filter.WithCategory(query.true_category);
  const auto response = scoped.Search(query, qo);
  ASSERT_NE(response.detected_category, query.true_category);
  ASSERT_FALSE(response.results.empty());
  bool found = false;
  for (const auto& r : response.results) {
    EXPECT_EQ(r.hit.category, query.true_category);
    found |= r.hit.product_id == 14u;
  }
  EXPECT_TRUE(found);
}

TEST(BlenderTest, ResultCacheServesRepeatQueries) {
  MiniCluster mini;
  Blender::Config bc;
  bc.default_k = 5;
  bc.enable_result_cache = true;
  bc.cache.ttl_micros = 60'000'000;
  Blender cached("bl-cached", bc, mini.embedder, mini.detector,
                 std::vector<Broker*>{mini.broker.get()});
  const QueryImage query = mini.QueryFor(9, /*seed=*/4);
  const auto first = cached.Search(query);
  EXPECT_FALSE(first.from_cache);
  const auto second = cached.Search(query);  // identical photo
  EXPECT_TRUE(second.from_cache);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].hit.image_id, second.results[i].hit.image_id);
  }
  ASSERT_NE(cached.result_cache(), nullptr);
  EXPECT_EQ(cached.result_cache()->stats().hits, 1u);
}

TEST(BlenderTest, CacheDisabledByDefault) {
  MiniCluster mini;
  EXPECT_EQ(mini.blender->result_cache(), nullptr);
  const QueryImage query = mini.QueryFor(9, 4);
  EXPECT_FALSE(mini.blender->Search(query).from_cache);
  EXPECT_FALSE(mini.blender->Search(query).from_cache);
}

TEST(BlenderTest, QueriesServedCounter) {
  MiniCluster mini;
  EXPECT_EQ(mini.blender->queries_served(), 0u);
  mini.blender->Search(mini.QueryFor(1));
  mini.blender->Search(mini.QueryFor(2));
  EXPECT_EQ(mini.blender->queries_served(), 2u);
}

// ---- Observability through the full ClusterBuilder topology ----

ClusterConfig SmallTracedClusterConfig() {
  ClusterConfig config;
  config.num_partitions = 4;
  config.num_brokers = 2;
  config.num_blenders = 1;
  config.hop_latency = {.base_micros = 100};
  config.embedder = {.dim = 16, .num_categories = 6, .seed = 11};
  config.detector = {.num_categories = 6, .top1_accuracy = 1.0};
  config.extraction = {.mean_micros = 0};
  config.kmeans.num_clusters = 6;
  config.ivf.nprobe = 6;
  config.trace_sample_every = 1;
  return config;
}

std::unique_ptr<VisualSearchCluster> BuildSmallCluster(
    const ClusterConfig& config) {
  auto cluster = std::make_unique<VisualSearchCluster>(config);
  CatalogGenConfig cg;
  cg.num_products = 120;
  cg.num_categories = 6;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();
  return cluster;
}

TEST(ClusterTracingTest, TracedQueryProducesFullSpanTree) {
  const ClusterConfig config = SmallTracedClusterConfig();
  auto cluster = BuildSmallCluster(config);
  const auto record = cluster->catalog().Get(42);
  const QueryResponse response =
      cluster->Query(QueryImage{42, record->category, 1});
  ASSERT_NE(response.trace_id, 0u);

  const auto spans = cluster->trace_sink().SpansFor(response.trace_id);
  std::size_t roots = 0, brokers = 0, scans = 0, extracts = 0, ranks = 0;
  for (const auto& span : spans) {
    if (span.name == "query") ++roots;
    if (span.name == "broker.search") ++brokers;
    if (span.name == "searcher.scan") ++scans;
    if (span.name == "extract") ++extracts;
    if (span.name == "rank") ++ranks;
    EXPECT_GE(span.DurationMicros(), 0);
    EXPECT_TRUE(span.ok) << span.name << ": " << span.status;
  }
  // Exactly one blender root, one broker span per broker, one searcher span
  // per probed partition.
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(brokers, config.num_brokers);
  EXPECT_EQ(scans, config.num_partitions);
  EXPECT_EQ(extracts, 1u);
  EXPECT_EQ(ranks, 1u);

  // The root and broker spans cover real work (fan-out over >=100us hops).
  for (const auto& span : spans) {
    if (span.name == "query" || span.name == "broker.search") {
      EXPECT_GT(span.DurationMicros(), 0) << span.name;
    }
    if (span.name != "query") {
      EXPECT_NE(span.parent_span_id, 0u) << span.name;
    }
  }

  const std::string tree = cluster->trace_sink().Render(response.trace_id);
  EXPECT_NE(tree.find("query @blender-0"), std::string::npos);
  EXPECT_NE(tree.find("broker.search @broker-"), std::string::npos);
  EXPECT_NE(tree.find("searcher.scan @searcher-p"), std::string::npos);
  cluster->Stop();
}

TEST(ClusterTracingTest, SamplingTracesEveryNthQuery) {
  ClusterConfig config = SmallTracedClusterConfig();
  config.trace_sample_every = 2;
  auto cluster = BuildSmallCluster(config);
  std::vector<bool> traced;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto record = cluster->catalog().Get(1 + i);
    const auto response =
        cluster->Query(QueryImage{1 + i, record->category, i});
    traced.push_back(response.trace_id != 0);
  }
  EXPECT_EQ(traced, std::vector<bool>({true, false, true, false}));
  cluster->Stop();
}

TEST(ClusterTracingTest, TracedUpdateReachesEveryPartition) {
  const ClusterConfig config = SmallTracedClusterConfig();
  auto cluster = BuildSmallCluster(config);

  ProductUpdateMessage add;
  add.type = UpdateType::kAddProduct;
  add.product_id = 9001;
  add.category_id = 3;
  add.attributes = {.sales = 1, .price_cents = 999, .praise = 1};
  for (std::uint32_t k = 0; k < 4; ++k) {
    add.image_urls.push_back(MakeImageUrl(9001, k));
  }
  cluster->PublishUpdate(add);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());

  // Find the update's root span and its rt.apply children: one per searcher
  // (every partition consumes the topic).
  std::uint64_t update_trace = 0;
  for (const auto& span : cluster->trace_sink().Collect()) {
    if (span.name == "update") update_trace = span.trace_id;
  }
  ASSERT_NE(update_trace, 0u);
  std::size_t applies = 0;
  for (const auto& span : cluster->trace_sink().SpansFor(update_trace)) {
    if (span.name == "rt.apply") ++applies;
  }
  EXPECT_EQ(applies, cluster->num_searchers());
  cluster->Stop();
}

TEST(ClusterObservabilityTest, RegistryMatchesComponentCounters) {
  ClusterConfig config = SmallTracedClusterConfig();
  config.trace_sample_every = 0;
  config.replicas_per_partition = 2;
  config.num_blenders = 1;
  config.blender_result_cache = true;
  config.blender_cache.ttl_micros = 60'000'000;
  auto cluster = BuildSmallCluster(config);

  // Provoke one failover (replica 0 of partition 0 down), one cache hit
  // (identical query photo twice), and a few real-time updates.
  cluster->searcher(0, 0).node().set_failed(true);
  const auto record = cluster->catalog().Get(7);
  const QueryImage query{7, record->category, 5};
  cluster->Query(query);
  cluster->Query(query);

  for (int i = 0; i < 3; ++i) {
    ProductUpdateMessage update;
    update.type = UpdateType::kAttributeUpdate;
    update.product_id = 10 + i;
    update.attributes = {.sales = 100, .price_cents = 500, .praise = 10};
    cluster->PublishUpdate(std::move(update));
  }
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());

  const obs::Registry& registry = cluster->registry();

  // Broker failovers: registry series sum == component getter sum, >= 1.
  std::uint64_t getter_failovers = 0, registry_failovers = 0;
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    getter_failovers += cluster->broker(b).failovers();
    const obs::Counter* counter = registry.FindCounter(obs::Labeled(
        "jdvs_broker_failovers_total", "broker", cluster->broker(b).name()));
    ASSERT_NE(counter, nullptr);
    registry_failovers += counter->Value();
  }
  EXPECT_GE(getter_failovers, 1u);
  EXPECT_EQ(registry_failovers, getter_failovers);

  // Cache hits: registry mirror == QueryCache::stats().
  ASSERT_NE(cluster->blender(0).result_cache(), nullptr);
  const auto cache_stats = cluster->blender(0).result_cache()->stats();
  EXPECT_EQ(cache_stats.hits, 1u);
  const obs::Counter* hits = registry.FindCounter(
      obs::Labeled("jdvs_cache_hits_total", "owner", "blender-0"));
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->Value(), cache_stats.hits);

  // Real-time updates: per-searcher registry series sum == aggregate getter.
  std::uint64_t registry_updates = 0;
  for (std::size_t i = 0; i < cluster->num_searchers(); ++i) {
    const obs::Counter* counter = registry.FindCounter(
        obs::Labeled("jdvs_realtime_updates_total", "searcher",
                     cluster->searcher_flat(i).name()));
    ASSERT_NE(counter, nullptr);
    registry_updates += counter->Value();
  }
  EXPECT_EQ(registry_updates, cluster->TotalUpdateCounters().TotalMessages());
  EXPECT_GT(registry_updates, 0u);

  // And the exposition dump carries all three families.
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# TYPE jdvs_broker_failovers_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("jdvs_cache_hits_total{owner=\"blender-0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE jdvs_realtime_updates_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE jdvs_stage_micros histogram"), std::string::npos);
  EXPECT_NE(text.find("jdvs_stage_micros_bucket{"), std::string::npos);

  // The dispatch-tier gauge reflects the resolved kernel tier.
  const obs::Gauge* tier = registry.FindGauge("jdvs_kernel_dispatch_tier");
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->Value(), static_cast<std::int64_t>(ActiveKernelTier()));
  cluster->Stop();
}

}  // namespace
}  // namespace jdvs
