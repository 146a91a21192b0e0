// End-to-end integration tests over the full VisualSearchCluster: the
// Figure 1 system with all three tiers, real-time indexing via the message
// queue, full-index rebuilds under live traffic, and failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "search/cluster_builder.h"
#include "workload/catalog_gen.h"
#include "workload/day_trace.h"
#include "workload/query_client.h"

namespace jdvs {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_partitions = 4;
  config.replicas_per_partition = 1;
  config.num_brokers = 2;
  config.num_blenders = 2;
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

ProductUpdateMessage AddMessage(ProductId id, CategoryId category,
                                std::uint32_t images) {
  ProductUpdateMessage m;
  m.type = UpdateType::kAddProduct;
  m.product_id = id;
  m.category_id = category;
  m.attributes = {.sales = 3, .price_cents = 900, .praise = 1};
  for (std::uint32_t k = 0; k < images; ++k) {
    m.image_urls.push_back(MakeImageUrl(id, k));
  }
  return m;
}

TEST(ClusterIntegrationTest, QueryFindsSubjectProduct) {
  auto cluster = MakeCluster();
  int found = 0;
  constexpr int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    const ProductId target = 1 + (q * 7) % 200;
    const auto response = cluster->Query(QueryFor(*cluster, target, q));
    ASSERT_FALSE(response.results.empty());
    for (const auto& r : response.results) {
      if (r.hit.product_id == target) {
        ++found;
        break;
      }
    }
  }
  // The synthetic embedding separates products well; expect near-perfect.
  EXPECT_GE(found, kQueries - 2);
}

// Partitions that own one of `urls`, as the cluster's partitioner assigns
// them.
std::vector<bool> OwningPartitions(VisualSearchCluster& cluster,
                                   const std::vector<std::string>& urls) {
  std::vector<bool> owned(cluster.config().num_partitions, false);
  for (const std::string& url : urls) {
    owned[cluster.partitioner().PartitionOf(url)] = true;
  }
  return owned;
}

// Partitions that own an image of the message's product: the catalog
// record's images and the message's own.
std::vector<bool> OwningPartitions(VisualSearchCluster& cluster,
                                   const ProductUpdateMessage& message) {
  std::vector<std::string> urls = message.image_urls;
  if (const auto record = cluster.catalog().Get(message.product_id)) {
    urls.insert(urls.end(), record->image_urls.begin(),
                record->image_urls.end());
  }
  return OwningPartitions(cluster, urls);
}

// True when `partition` answers `url`'s feature with a hit of `product`.
bool PartitionServes(VisualSearchCluster& cluster, std::size_t partition,
                     const std::string& url, ProductId product) {
  const auto feature = cluster.features().Get(url);
  if (!feature) return false;
  for (const SearchHit& hit :
       cluster.searcher(partition).SearchLocal(*feature, 10)) {
    if (hit.product_id == product) return true;
  }
  return false;
}

TEST(ClusterIntegrationTest, AllPartitionsServeData) {
  auto cluster = MakeCluster();
  const auto stats = cluster->AggregateIndexStats();
  EXPECT_GT(stats.total_images, 0u);
  EXPECT_EQ(stats.total_images, stats.valid_images);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_GT(cluster->searcher(p).index_stats().total_images, 0u)
        << "partition " << p << " is empty";
  }
}

TEST(ClusterIntegrationTest, RealTimeAdditionIsImmediatelySearchable) {
  auto cluster = MakeCluster();
  // Data freshness: publish an addition, drain, query.
  cluster->PublishUpdate(AddMessage(9001, 3, 4));
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
  const auto response = cluster->Query(QueryImage{9001, 3, 77});
  ASSERT_FALSE(response.results.empty());
  EXPECT_EQ(response.results[0].hit.product_id, 9001u);
  const auto counters = cluster->TotalUpdateCounters();
  EXPECT_EQ(counters.images_added, 4u);  // spread across partitions
}

TEST(ClusterIntegrationTest, RealTimeDeletionIsImmediatelyInvisible) {
  auto cluster = MakeCluster();
  const ProductId victim = 42;
  const auto query = QueryFor(*cluster, victim, 5);
  // Present before deletion.
  bool before = false;
  for (const auto& r : cluster->Query(query).results) {
    before |= (r.hit.product_id == victim);
  }
  ASSERT_TRUE(before);

  ProductUpdateMessage del;
  del.type = UpdateType::kRemoveProduct;
  del.product_id = victim;
  cluster->PublishUpdate(del);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());

  for (const auto& r : cluster->Query(query).results) {
    EXPECT_NE(r.hit.product_id, victim);
  }
}

TEST(ClusterIntegrationTest, RelistRestoresWithoutReextraction) {
  auto cluster = MakeCluster();
  const ProductId product = 17;
  const auto record = cluster->catalog().Get(product);
  ProductUpdateMessage del;
  del.type = UpdateType::kRemoveProduct;
  del.product_id = product;
  cluster->PublishUpdate(del);

  ProductUpdateMessage relist;
  relist.type = UpdateType::kAddProduct;
  relist.product_id = product;
  relist.category_id = record->category;
  relist.image_urls = record->image_urls;
  relist.attributes = record->attributes;
  cluster->PublishUpdate(relist);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());

  const auto counters = cluster->TotalUpdateCounters();
  EXPECT_EQ(counters.images_revalidated, record->image_urls.size());
  EXPECT_EQ(counters.features_extracted, 0u);  // reuse, no CNN run

  bool found = false;
  for (const auto& r :
       cluster->Query(QueryFor(*cluster, product, 3)).results) {
    found |= (r.hit.product_id == product);
  }
  EXPECT_TRUE(found);
}

TEST(ClusterIntegrationTest, AttributeUpdateVisibleInResults) {
  auto cluster = MakeCluster();
  ProductUpdateMessage upd;
  upd.type = UpdateType::kAttributeUpdate;
  upd.product_id = 10;
  upd.attributes = {.sales = 123456, .price_cents = 77, .praise = 999};
  cluster->PublishUpdate(upd);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
  const auto response = cluster->Query(QueryFor(*cluster, 10, 9));
  ASSERT_FALSE(response.results.empty());
  bool saw = false;
  for (const auto& r : response.results) {
    if (r.hit.product_id == 10u) {
      EXPECT_EQ(r.hit.attributes.sales, 123456u);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST(ClusterIntegrationTest, UpdatesReachOnlyOwningPartitions) {
  auto cluster = MakeCluster();
  // Catalog products whose images miss at least one partition, so routing
  // has a partition to skip.
  std::vector<ProductId> sparse;
  for (ProductId id = 1; id <= 200 && sparse.size() < 3; ++id) {
    const std::vector<bool> owned =
        OwningPartitions(*cluster, cluster->catalog().Get(id)->image_urls);
    if (std::find(owned.begin(), owned.end(), false) != owned.end()) {
      sparse.push_back(id);
    }
  }
  ASSERT_EQ(sparse.size(), 3u);

  std::vector<ProductUpdateMessage> messages;
  ProductUpdateMessage update;
  update.type = UpdateType::kAttributeUpdate;
  update.product_id = sparse[0];
  update.attributes = {.sales = 42, .price_cents = 4200, .praise = 4};
  messages.push_back(update);
  ProductUpdateMessage removal;
  removal.type = UpdateType::kRemoveProduct;
  removal.product_id = sparse[1];
  messages.push_back(removal);
  const auto record = cluster->catalog().Get(sparse[2]);
  ProductUpdateMessage relist;
  relist.type = UpdateType::kAddProduct;
  relist.product_id = sparse[2];
  relist.category_id = record->category;
  relist.image_urls = record->image_urls;
  relist.attributes = record->attributes;
  messages.push_back(relist);
  messages.push_back(AddMessage(9401, 2, 1));  // a new product, one image

  std::vector<std::uint64_t> expected(4, 0);
  for (const ProductUpdateMessage& m : messages) {
    const std::vector<bool> owned = OwningPartitions(*cluster, m);
    for (std::size_t p = 0; p < 4; ++p) expected[p] += owned[p] ? 1 : 0;
    cluster->PublishUpdate(m);
  }
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(cluster->searcher(p).update_counters().TotalMessages(),
              expected[p])
        << "partition " << p;
    EXPECT_EQ(cluster->searcher(p).messages_consumed(),
              cluster->updates_published())
        << "partition " << p;
  }
  // Fewer partition applies than a broadcast would make.
  EXPECT_LT(std::accumulate(expected.begin(), expected.end(), 0ull),
            4 * messages.size());
}

TEST(ClusterIntegrationTest, RelistedNewImageSurvivesFullRebuild) {
  auto cluster = MakeCluster();
  const ProductId product = 17;
  const auto record = cluster->catalog().Get(product);
  ASSERT_TRUE(record.has_value());
  // A new image of the product, owned by a partition none of its old images
  // maps to.
  const std::vector<bool> old_owners =
      OwningPartitions(*cluster, record->image_urls);
  ASSERT_NE(std::find(old_owners.begin(), old_owners.end(), false),
            old_owners.end());
  std::string new_url;
  for (std::uint32_t k = 100; new_url.empty(); ++k) {
    const std::string url = MakeImageUrl(product, k);
    if (!old_owners[cluster->partitioner().PartitionOf(url)]) new_url = url;
  }
  const std::size_t new_partition = cluster->partitioner().PartitionOf(new_url);

  ProductUpdateMessage relist;
  relist.type = UpdateType::kAddProduct;
  relist.product_id = product;
  relist.category_id = record->category;
  relist.image_urls = record->image_urls;
  relist.image_urls.push_back(new_url);
  relist.attributes = record->attributes;
  cluster->PublishUpdate(relist);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
  EXPECT_TRUE(PartitionServes(*cluster, new_partition, new_url, product));

  // The catalog record now holds the image, so the rebuild keeps it.
  cluster->RunFullIndexingCycle();
  EXPECT_TRUE(PartitionServes(*cluster, new_partition, new_url, product));

  // And a removal, which carries no URLs, reaches the new image's partition.
  ProductUpdateMessage removal;
  removal.type = UpdateType::kRemoveProduct;
  removal.product_id = product;
  cluster->PublishUpdate(removal);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
  for (const std::string& url : relist.image_urls) {
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_FALSE(PartitionServes(*cluster, p, url, product))
          << url << " on partition " << p;
    }
  }
}

// perfbench's visibility test: a burst counts as applied once every
// searcher's messages_consumed() reaches updates_published(). At that moment
// every image the burst added must be served by its partition with the
// attributes of its product's last message, and every removed product must
// be gone (perfbench's final-state stream check).
TEST(ClusterIntegrationTest, BurstIsAppliedWhenCountsReachPublished) {
  // A new product's images pay a simulated extraction, so the applies trail
  // the publisher: a count that ran ahead of its apply would show.
  ClusterConfig config = SmallConfig();
  config.extraction = {.mean_micros = 2000};
  auto cluster = MakeCluster(config);
  DayTraceConfig tc;
  tc.total_messages = 50;
  tc.num_categories = 8;
  tc.seed = 7;
  std::vector<ProductUpdateMessage> burst;
  DayTraceGenerator(tc, cluster->catalog()).Generate([&](const TraceEvent& e) {
    burst.push_back(e.message);
  });
  ASSERT_EQ(burst.size(), 50u);
  std::size_t new_products = 0;
  std::map<ProductId, std::size_t> last;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (!cluster->catalog().Contains(burst[i].product_id) &&
        last.count(burst[i].product_id) == 0) {
      ++new_products;
    }
    last[burst[i].product_id] = i;
  }
  ASSERT_GT(new_products, 0u);

  for (const ProductUpdateMessage& m : burst) cluster->PublishUpdate(m);
  const std::uint64_t published = cluster->updates_published();
  const Micros deadline = MonotonicClock::Instance().NowMicros() + 10'000'000;
  for (;;) {
    bool counted = true;
    for (std::size_t i = 0; i < cluster->num_searchers(); ++i) {
      counted = counted &&
                cluster->searcher_flat(i).messages_consumed() >= published;
    }
    if (counted) break;
    ASSERT_LT(MonotonicClock::Instance().NowMicros(), deadline);
    std::this_thread::yield();
  }

  for (const auto& [id, index] : last) {
    const ProductUpdateMessage& message = burst[index];
    const auto record = cluster->catalog().Get(id);
    ASSERT_TRUE(record.has_value()) << "product " << id;
    for (const std::string& url : record->image_urls) {
      const auto feature = cluster->features().Get(url);
      ASSERT_TRUE(feature.has_value()) << url;
      const std::vector<SearchHit> hits =
          cluster->searcher(cluster->partitioner().PartitionOf(url))
              .SearchLocal(*feature, 10);
      if (message.type == UpdateType::kRemoveProduct) {
        for (const SearchHit& hit : hits) {
          EXPECT_NE(hit.product_id, id) << url;
        }
      } else {
        const auto it = std::find_if(
            hits.begin(), hits.end(),
            [&](const SearchHit& hit) { return hit.image_url == url; });
        ASSERT_NE(it, hits.end()) << url;
        EXPECT_EQ(it->attributes, message.attributes) << url;
      }
    }
  }
}

TEST(ClusterIntegrationTest, UnknownProductWithoutImagesStillDrains) {
  auto cluster = MakeCluster();
  ProductUpdateMessage update;
  update.type = UpdateType::kAttributeUpdate;
  update.product_id = 999'999;  // not in the catalog, no URLs: no partition
  update.attributes = {.sales = 1, .price_cents = 1, .praise = 1};
  cluster->PublishUpdate(update);
  for (std::size_t i = 0; i < cluster->num_searchers(); ++i) {
    EXPECT_EQ(cluster->searcher_flat(i).messages_consumed(),
              cluster->updates_published());
    EXPECT_EQ(cluster->searcher_flat(i).update_counters().TotalMessages(), 0u);
  }
  EXPECT_TRUE(cluster->WaitForUpdatesDrained(1'000'000));
}

TEST(ClusterIntegrationTest, WithoutRealtimeUpdatesWaitForFullCycle) {
  ClusterConfig config = SmallConfig();
  config.realtime_enabled = false;  // the Figure 12 baseline
  auto cluster = MakeCluster(config);

  cluster->PublishUpdate(AddMessage(9002, 2, 3));
  // No real-time path: the product is not searchable yet.
  const auto before = cluster->Query(QueryImage{9002, 2, 11});
  for (const auto& r : before.results) {
    EXPECT_NE(r.hit.product_id, 9002u);
  }
  // After the periodic full indexing cycle it appears.
  cluster->RunFullIndexingCycle();
  const auto after = cluster->Query(QueryImage{9002, 2, 11});
  ASSERT_FALSE(after.results.empty());
  EXPECT_EQ(after.results[0].hit.product_id, 9002u);
}

TEST(ClusterIntegrationTest, FullRebuildUnderLiveTrafficKeepsServing) {
  auto cluster = MakeCluster();
  // Publish some churn, then rebuild while queries continue.
  for (int i = 0; i < 20; ++i) {
    cluster->PublishUpdate(AddMessage(8000 + i, i % 8, 2));
  }
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
  cluster->RunFullIndexingCycle();
  const auto response = cluster->Query(QueryImage{8005, 5, 2});
  ASSERT_FALSE(response.results.empty());
  EXPECT_EQ(response.results[0].hit.product_id, 8005u);
  // Day log was truncated by the cycle.
  EXPECT_EQ(cluster->day_log().size(), 0u);
}

TEST(ClusterIntegrationTest, ReplicaFailoverKeepsFullCoverage) {
  ClusterConfig config = SmallConfig();
  config.replicas_per_partition = 2;
  auto cluster = MakeCluster(config);
  // Kill the primary replica of partition 0.
  cluster->searcher(0, 0).node().set_failed(true);
  int found = 0;
  constexpr int kQueries = 10;
  for (int q = 0; q < kQueries; ++q) {
    const ProductId target = 1 + q * 11;
    const auto response = cluster->Query(QueryFor(*cluster, target, q));
    for (const auto& r : response.results) {
      if (r.hit.product_id == target) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(found, kQueries - 1);
  std::uint64_t failovers = 0;
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    failovers += cluster->broker(b).failovers();
  }
  EXPECT_GT(failovers, 0u);
}

TEST(ClusterIntegrationTest, BlenderFailureHandledByFrontEnd) {
  auto cluster = MakeCluster();
  cluster->blender(0).node().set_failed(true);
  // Round robin skips the failed blender.
  for (int q = 0; q < 5; ++q) {
    const auto response = cluster->Query(QueryFor(*cluster, 30 + q, q));
    EXPECT_FALSE(response.results.empty());
  }
}

TEST(ClusterIntegrationTest, QueryClientMeasuresWorkload) {
  auto cluster = MakeCluster();
  QueryWorkloadConfig qc;
  qc.num_threads = 4;
  qc.queries_per_thread = 10;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult result = client.Run();
  EXPECT_EQ(result.queries, 40u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_EQ(result.latency_micros->Count(), 40u);
  EXPECT_GT(result.subject_hit_rate, 0.8);
}

TEST(ClusterIntegrationTest, ResultCacheThroughClusterConfig) {
  ClusterConfig config = SmallConfig();
  config.num_blenders = 1;  // a single cache to hit
  config.blender_result_cache = true;
  config.blender_cache.ttl_micros = 60'000'000;
  auto cluster = MakeCluster(config);
  const QueryImage query = QueryFor(*cluster, 8, 3);
  EXPECT_FALSE(cluster->Query(query).from_cache);
  EXPECT_TRUE(cluster->Query(query).from_cache);

  // Strict invalidation: an update bumps the cluster version and kills it.
  ClusterConfig strict_config = config;
  strict_config.blender_cache.strict_version_check = true;
  auto strict = MakeCluster(strict_config);
  const QueryImage q2 = QueryFor(*strict, 8, 3);
  EXPECT_FALSE(strict->Query(q2).from_cache);
  EXPECT_TRUE(strict->Query(q2).from_cache);
  strict->PublishUpdate(AddMessage(9300, 1, 1));
  ASSERT_TRUE(strict->WaitForUpdatesDrained());
  EXPECT_FALSE(strict->Query(q2).from_cache);  // version moved
}

TEST(ClusterIntegrationTest, StatusReportSummarizesState) {
  auto cluster = MakeCluster();
  cluster->PublishUpdate(AddMessage(9100, 1, 2));
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
  cluster->Query(QueryFor(*cluster, 5, 1));
  const std::string report = cluster->StatusReport();
  EXPECT_NE(report.find("4 partitions"), std::string::npos);
  EXPECT_NE(report.find("realtime=on"), std::string::npos);
  EXPECT_NE(report.find("broker-0"), std::string::npos);
  EXPECT_NE(report.find("blender-0"), std::string::npos);
  EXPECT_NE(report.find("searchers: 4/4 healthy"), std::string::npos);
  cluster->searcher(0).node().set_failed(true);
  EXPECT_NE(cluster->StatusReport().find("searchers: 3/4 healthy"),
            std::string::npos);
}

TEST(ClusterIntegrationTest, UpdatesRaceQueriesWithoutErrors) {
  auto cluster = MakeCluster();
  // Drive updates and queries concurrently; nothing may crash or error.
  std::thread updater([&] {
    for (int i = 0; i < 200; ++i) {
      cluster->PublishUpdate(AddMessage(7000 + i, i % 8, 2));
      if (i % 3 == 0) {
        ProductUpdateMessage del;
        del.type = UpdateType::kRemoveProduct;
        del.product_id = 1 + (i % 100);
        cluster->PublishUpdate(del);
      }
    }
  });
  QueryWorkloadConfig qc;
  qc.num_threads = 4;
  qc.queries_per_thread = 25;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult result = client.Run();
  updater.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.queries, 100u);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());
}

}  // namespace
}  // namespace jdvs
