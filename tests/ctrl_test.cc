// Control-plane tests: replica state machine, heartbeat failure detection,
// automatic recovery with snapshot + catch-up replay, and rolling full-index
// deployment under live traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "ctrl/controller.h"
#include "ctrl/failure_detector.h"
#include "ctrl/replica_state.h"
#include "net/fault_injector.h"
#include "search/cluster_builder.h"
#include "workload/catalog_gen.h"
#include "workload/query_client.h"

namespace jdvs {
namespace {

using ctrl::ReplicaState;

// Polls `done` until true or the deadline passes.
bool WaitUntil(const std::function<bool()>& done,
               Micros timeout_micros = 10'000'000) {
  const auto& clock = MonotonicClock::Instance();
  const Micros deadline = clock.NowMicros() + timeout_micros;
  while (!done()) {
    if (clock.NowMicros() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ReplicaStateTableTest, TransitionsCountsAndGauges) {
  obs::Registry registry;
  ctrl::ReplicaStateTable table(&registry);
  const std::size_t a = table.Register("s-a");
  table.Register("s-b");
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Get(a), ReplicaState::kUp);
  EXPECT_TRUE(table.Serving(a));

  table.Set(a, ReplicaState::kSuspect);
  EXPECT_TRUE(table.Serving(a));  // a missed heartbeat is a hint, not a verdict
  table.Set(a, ReplicaState::kDown);
  EXPECT_FALSE(table.Serving(a));
  EXPECT_GT(table.down_since_micros(a), 0);
  table.Set(a, ReplicaState::kRecovering);
  EXPECT_FALSE(table.Serving(a));
  table.Set(a, ReplicaState::kUp);
  table.Set(a, ReplicaState::kUp);  // duplicate set: no extra transition

  const ctrl::ReplicaStateCounts counts = table.Counts();
  EXPECT_EQ(counts.up, 2u);
  EXPECT_EQ(counts.down, 0u);
  EXPECT_EQ(registry
                .GetGauge(obs::Labeled("jdvs_ctrl_replica_state", "replica",
                                       "s-a"))
                .Value(),
            static_cast<std::int64_t>(ReplicaState::kUp));
  EXPECT_EQ(registry
                .GetCounter(obs::Labeled("jdvs_ctrl_transitions_total", "to",
                                         "down"))
                .Value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter(
                    obs::Labeled("jdvs_ctrl_transitions_total", "to", "up"))
                .Value(),
            1u);
}

TEST(ReplicaStateNameTest, AllStatesNamed) {
  EXPECT_STREQ(ReplicaStateName(ReplicaState::kUp), "up");
  EXPECT_STREQ(ReplicaStateName(ReplicaState::kSuspect), "suspect");
  EXPECT_STREQ(ReplicaStateName(ReplicaState::kDown), "down");
  EXPECT_STREQ(ReplicaStateName(ReplicaState::kRecovering), "recovering");
}

TEST(FailureDetectorTest, MarksDownAndReinstatesOnAck) {
  obs::Registry registry;
  ctrl::ReplicaStateTable table(&registry);
  Node node("hb-target", 1);
  const std::size_t slot = table.Register(node.name());

  ctrl::FailureDetectorConfig fc;
  // 10 ms rounds: at 1 ms, scheduling jitter that delays two probes past
  // their round marked the healthy node DOWN before the UP check below.
  fc.heartbeat_period_micros = 10'000;
  fc.suspect_after_misses = 1;
  fc.down_after_misses = 2;
  fc.reinstate_on_ack = true;  // operator-revive mode
  ctrl::FailureDetector detector({{&node, slot}}, table, fc, &registry);
  detector.Start();

  // A healthy node stays UP across many rounds.
  ASSERT_TRUE(WaitUntil([&] { return detector.heartbeats_sent() >= 5; }));
  EXPECT_EQ(table.Get(slot), ReplicaState::kUp);

  // Fail switch on: probes error out, misses accumulate, DOWN follows.
  node.set_failed(true);
  ASSERT_TRUE(WaitUntil([&] { return table.Get(slot) == ReplicaState::kDown; }));
  EXPECT_GT(detector.misses(), 0u);

  // Operator revives the node: the next ack reinstates it directly.
  node.set_failed(false);
  ASSERT_TRUE(WaitUntil([&] { return table.Get(slot) == ReplicaState::kUp; }));
  detector.Stop();
  EXPECT_GT(registry.GetCounter("jdvs_ctrl_heartbeats_total").Value(), 0u);
  EXPECT_GT(registry.GetCounter("jdvs_ctrl_heartbeat_misses_total").Value(),
            0u);
}

TEST(FailureDetectorTest, ProbeTimeoutSurvivesTotalProbeLoss) {
  // The fabric eats every probe: without a per-probe timeout the
  // one-outstanding-probe rule would wedge this replica's probing forever
  // (in_flight never clears) and the outage would go unnoticed. With the
  // timeout, dropped probes come back as misses and DOWN follows.
  obs::Registry registry;
  ctrl::ReplicaStateTable table(&registry);
  FaultInjector injector(11);
  Node node("hb-blackhole", 1);
  node.set_fault_injector(&injector);
  injector.SetLink("ctrl", node.name(),
                   LinkFaults{.drop_probability = 1.0});
  const std::size_t slot = table.Register(node.name());

  ctrl::FailureDetectorConfig fc;
  fc.heartbeat_period_micros = 2'000;
  fc.probe_timeout_micros = 3'000;
  fc.suspect_after_misses = 1;
  fc.down_after_misses = 2;
  fc.reinstate_on_ack = true;
  ctrl::FailureDetector detector({{&node, slot}}, table, fc, &registry);
  detector.Start();
  ASSERT_TRUE(
      WaitUntil([&] { return table.Get(slot) == ReplicaState::kDown; }));
  EXPECT_GT(detector.misses(), 0u);
  // More than one probe was dispatched — the timeout kept clearing
  // in_flight (without it, the one-outstanding-probe rule would have
  // stopped after the first dropped probe).
  EXPECT_GE(detector.heartbeats_sent(), 2u);

  // Network heals: acks flow again and the replica is reinstated.
  injector.Heal("ctrl", node.name());
  ASSERT_TRUE(WaitUntil([&] { return table.Get(slot) == ReplicaState::kUp; }));
  detector.Stop();
}

TEST(FailureDetectorTest, StuckProbeCountsOneMiss) {
  // Every probe is dropped and times out only after five periods. A probe
  // counts at most one miss however many rounds it stays unanswered, so
  // DOWN (two misses) takes a second probe, dispatched once the first one
  // timed out.
  obs::Registry registry;
  ctrl::ReplicaStateTable table(&registry);
  FaultInjector injector(12);
  Node node("hb-stuck", 1);
  node.set_fault_injector(&injector);
  injector.SetLink("ctrl", node.name(),
                   LinkFaults{.drop_probability = 1.0});
  const std::size_t slot = table.Register(node.name());

  ctrl::FailureDetectorConfig fc;
  fc.heartbeat_period_micros = 2'000;
  fc.probe_timeout_micros = 10'000;
  fc.suspect_after_misses = 1;
  fc.down_after_misses = 2;
  ctrl::FailureDetector detector({{&node, slot}}, table, fc, &registry);
  detector.Start();
  ASSERT_TRUE(
      WaitUntil([&] { return table.Get(slot) == ReplicaState::kDown; }));
  const std::uint64_t sent_at_down = detector.heartbeats_sent();
  detector.Stop();
  EXPECT_GE(sent_at_down, 2u);
  EXPECT_LE(detector.misses(), detector.heartbeats_sent());
}

TEST(FailureDetectorTest, LatencyOutlierEjectedDespiteHealthyHeartbeats) {
  // The gray-failure case: a replica acks every probe but answers queries
  // 50x slow. Heartbeat detection alone never touches it; the latency
  // EWMA comparison marks it SUSPECT, and it re-enters once its EWMA
  // recovers below the hysteresis band.
  obs::Registry registry;
  ctrl::ReplicaStateTable table(&registry);
  Node a("ewma-a", 1);
  Node b("ewma-b", 1);
  Node limper("ewma-limper", 1);
  const std::size_t slot_a = table.Register(a.name());
  const std::size_t slot_b = table.Register(b.name());
  const std::size_t slot_l = table.Register(limper.name());

  ctrl::FailureDetectorConfig fc;
  fc.heartbeat_period_micros = 2'000;
  fc.suspect_after_misses = 2;
  fc.down_after_misses = 10;
  fc.latency_outlier_factor = 3.0;
  fc.latency_outlier_min_micros = 500;
  fc.latency_reenter_fraction = 0.7;
  ctrl::FailureDetector detector(
      {{&a, slot_a}, {&b, slot_b}, {&limper, slot_l}}, table, fc, &registry);

  // Healthy peers around 400us, the limper at 20ms (50x): threshold is
  // max(500, 3 x 400) = 1200us, so the limper is way outside.
  for (int i = 0; i < 16; ++i) {
    table.RecordLatency(slot_a, 400);
    table.RecordLatency(slot_b, 400);
    table.RecordLatency(slot_l, 20'000);
  }
  detector.Start();
  ASSERT_TRUE(
      WaitUntil([&] { return table.Get(slot_l) == ReplicaState::kSuspect; }));
  EXPECT_GE(detector.latency_ejections(), 1u);
  EXPECT_GE(registry.GetCounter("jdvs_ctrl_latency_ejections_total").Value(),
            1u);
  // Healthy peers stay UP, and the limper keeps acking (it is SUSPECT for
  // latency, not for liveness) — acks alone must NOT reinstate it.
  EXPECT_EQ(table.Get(slot_a), ReplicaState::kUp);
  EXPECT_EQ(table.Get(slot_b), ReplicaState::kUp);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(table.Get(slot_l), ReplicaState::kSuspect);

  // The limper recovers: feed fast samples until its EWMA drops below the
  // re-enter band; the next ack then reinstates UP.
  ASSERT_TRUE(WaitUntil([&] {
    table.RecordLatency(slot_l, 400);
    return table.Get(slot_l) == ReplicaState::kUp;
  }));
  detector.Stop();
}

// ---- Full-cluster fixtures ----

class CtrlClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("jdvs_ctrl_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void MakeCluster(std::size_t partitions, std::size_t replicas,
                   std::size_t products = 120) {
    ClusterConfig config;
    config.num_partitions = partitions;
    config.replicas_per_partition = replicas;
    config.num_brokers = 1;
    config.num_blenders = 1;
    config.searcher_threads = 1;
    config.broker_threads = 2;
    config.blender_threads = 2;
    config.embedder = {.dim = 16, .num_categories = 4, .seed = 11};
    config.detector = {.num_categories = 4, .top1_accuracy = 1.0};
    config.extraction = {.mean_micros = 0};
    config.kmeans.num_clusters = 4;
    config.training_sample = 256;
    config.ivf.nprobe = 4;
    config.build_threads = 4;
    cluster_ = std::make_unique<VisualSearchCluster>(config);
    CatalogGenConfig cg;
    cg.num_products = products;
    cg.num_categories = 4;
    GenerateCatalog(cg, cluster_->catalog(), cluster_->image_store(),
                    &cluster_->features());
    cluster_->BuildAndInstallFullIndexes();
    cluster_->Start();
  }

  ctrl::ControllerConfig FastControllerConfig() const {
    ctrl::ControllerConfig cc;
    cc.detector.heartbeat_period_micros = 2'000;
    cc.detector.suspect_after_misses = 1;
    cc.detector.down_after_misses = 2;
    cc.recovery_poll_micros = 1'000;
    cc.snapshot_dir = dir_.string();
    return cc;
  }

  void PublishProduct(ProductId id, CategoryId category = 2) {
    ProductUpdateMessage add;
    add.type = UpdateType::kAddProduct;
    add.product_id = id;
    add.category_id = category;
    add.attributes = {.sales = 3, .price_cents = 900, .praise = 1};
    for (std::uint32_t k = 0; k < 2; ++k) {
      add.image_urls.push_back(MakeImageUrl(id, k));
    }
    cluster_->PublishUpdate(std::move(add));
  }

  bool Finds(ProductId id, CategoryId category, std::uint64_t seed) {
    const QueryResponse response =
        cluster_->Query(QueryImage{id, category, seed});
    for (const auto& r : response.results) {
      if (r.hit.product_id == id) return true;
    }
    return false;
  }

  std::filesystem::path dir_;
  std::unique_ptr<VisualSearchCluster> cluster_;
};

TEST_F(CtrlClusterTest, AutoRecoveryRevivesCrashedReplicaAndCatchesUp) {
  MakeCluster(/*partitions=*/2, /*replicas=*/2);
  ctrl::ClusterController controller(*cluster_, FastControllerConfig());
  controller.Start();

  // Hard-kill one replica: fail switch on, index and high-water mark gone.
  Searcher& victim = cluster_->searcher(0, 0);
  victim.Crash();
  EXPECT_FALSE(victim.HasIndex());
  const std::size_t slot = cluster_->replica_slot(0, 0);

  // Publish updates while the replica is down; recovery must replay them.
  for (int i = 0; i < 10; ++i) {
    PublishProduct(static_cast<ProductId>(9000 + i));
  }
  const std::uint64_t published_seq = cluster_->last_update_sequence();

  ASSERT_TRUE(WaitUntil([&] {
    return controller.recoveries() >= 1 &&
           cluster_->replica_states().Get(slot) == ctrl::ReplicaState::kUp;
  }));
  controller.Stop();

  EXPECT_TRUE(victim.HasIndex());
  EXPECT_FALSE(victim.node().failed());
  // Catch-up replay + live consumption covered everything published.
  ASSERT_TRUE(cluster_->WaitForUpdatesDrained());
  EXPECT_GE(victim.applied_sequence(), published_seq);
  // The mid-outage additions are searchable (both partitions serving).
  int found = 0;
  for (int i = 0; i < 10; ++i) {
    found += Finds(static_cast<ProductId>(9000 + i), 2, 100 + i) ? 1 : 0;
  }
  EXPECT_GE(found, 8);
  EXPECT_EQ(cluster_->broker(0).partition_failures(), 0u);
}

TEST_F(CtrlClusterTest, RecoveredReplicaAppliesOnlyItsPartitionsMessages) {
  MakeCluster(/*partitions=*/2, /*replicas=*/2);
  ctrl::ClusterController controller(*cluster_, FastControllerConfig());
  controller.Start();
  Searcher& victim = cluster_->searcher(0, 0);
  victim.Crash();
  const std::size_t slot = cluster_->replica_slot(0, 0);
  ASSERT_TRUE(WaitUntil([&] {
    return controller.recoveries() >= 1 &&
           cluster_->replica_states().Get(slot) == ctrl::ReplicaState::kUp;
  }));
  // Stopped so that no later recovery replays the log into the counts.
  controller.Stop();

  // One-image products, five owned by each partition.
  std::uint64_t before[2][2];
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t r = 0; r < 2; ++r) {
      before[p][r] = cluster_->searcher(p, r).update_counters().TotalMessages();
    }
  }
  std::uint64_t routed[2] = {0, 0};
  std::vector<ProductId> partition0_products;
  for (ProductId id = 9500; routed[0] < 5 || routed[1] < 5; ++id) {
    const std::size_t p =
        cluster_->partitioner().PartitionOf(MakeImageUrl(id, 0));
    if (routed[p] == 5) continue;
    ++routed[p];
    if (p == 0) partition0_products.push_back(id);
    ProductUpdateMessage add;
    add.type = UpdateType::kAddProduct;
    add.product_id = id;
    add.category_id = 2;
    add.image_urls.push_back(MakeImageUrl(id, 0));
    cluster_->PublishUpdate(std::move(add));
  }
  ASSERT_TRUE(cluster_->WaitForUpdatesDrained());

  // The victim reads partition 0's topic again: it applies exactly the
  // messages routed there, as its sibling does.
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(cluster_->searcher(p, r).update_counters().TotalMessages() -
                    before[p][r],
                routed[p])
          << "searcher " << p << "/" << r;
    }
  }
  EXPECT_GE(victim.messages_consumed(), cluster_->updates_published());
  for (const ProductId id : partition0_products) {
    const auto feature = cluster_->features().Get(MakeImageUrl(id, 0));
    ASSERT_TRUE(feature.has_value());
    const std::vector<SearchHit> hits = victim.SearchLocal(*feature, 5);
    EXPECT_TRUE(std::any_of(hits.begin(), hits.end(), [&](const SearchHit& h) {
      return h.product_id == id;
    })) << "product " << id;
  }
}

TEST_F(CtrlClusterTest, DetectOnlyModeLeavesRecoveryToOperator) {
  MakeCluster(/*partitions=*/1, /*replicas=*/2);
  ctrl::ControllerConfig cc = FastControllerConfig();
  cc.auto_recover = false;
  ctrl::ClusterController controller(*cluster_, cc);
  controller.Start();

  Searcher& victim = cluster_->searcher(0, 1);
  const std::size_t slot = cluster_->replica_slot(0, 1);
  victim.node().set_failed(true);
  ASSERT_TRUE(WaitUntil([&] {
    return cluster_->replica_states().Get(slot) == ctrl::ReplicaState::kDown;
  }));
  EXPECT_EQ(controller.recoveries(), 0u);

  // Manual revive; the detector reinstates on the next ack.
  victim.node().set_failed(false);
  ASSERT_TRUE(WaitUntil([&] {
    return cluster_->replica_states().Get(slot) == ctrl::ReplicaState::kUp;
  }));
  controller.Stop();
  EXPECT_EQ(controller.recoveries(), 0u);
}

TEST_F(CtrlClusterTest, BrokerSkipsReplicasMarkedDown) {
  MakeCluster(/*partitions=*/2, /*replicas=*/2);
  // Mark partition 0 / replica 0 DOWN directly (no detector running): the
  // broker must route to replica 1 without a single failed dispatch.
  cluster_->replica_states().Set(cluster_->replica_slot(0, 0),
                                 ctrl::ReplicaState::kDown);
  const auto record = cluster_->catalog().Get(5);
  ASSERT_TRUE(record.has_value());
  for (int q = 0; q < 10; ++q) {
    const QueryResponse response =
        cluster_->Query(QueryImage{5, record->category, 40u + q});
    EXPECT_FALSE(response.degraded);
  }
  EXPECT_EQ(cluster_->broker(0).failovers(), 0u);
  EXPECT_EQ(cluster_->broker(0).partition_failures(), 0u);
  EXPECT_GT(cluster_->broker(0).state_skips(), 0u);
}

TEST_F(CtrlClusterTest, NoServingReplicaDegradesGracefully) {
  MakeCluster(/*partitions=*/2, /*replicas=*/1);
  // The whole partition is marked DOWN: the broker fast-fails the slot and
  // the blender serves a partial (degraded) answer, never an error.
  cluster_->replica_states().Set(cluster_->replica_slot(1, 0),
                                 ctrl::ReplicaState::kDown);
  const auto record = cluster_->catalog().Get(7);
  ASSERT_TRUE(record.has_value());
  const QueryResponse response =
      cluster_->Query(QueryImage{7, record->category, 3});
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.broker_failures, 0u);  // the broker answered, partially
  EXPECT_GE(cluster_->broker(0).partition_failures(), 1u);
  EXPECT_EQ(cluster_->broker(0).failovers(), 0u);  // no doomed dispatches
  EXPECT_GE(cluster_->registry()
                .GetCounter(obs::Labeled("jdvs_blender_degraded_total",
                                         "blender", "blender-0"))
                .Value(),
            1u);
}

TEST_F(CtrlClusterTest, RollingDeploymentUnderLiveLoadKeepsServing) {
  MakeCluster(/*partitions=*/2, /*replicas=*/2, /*products=*/160);
  // Relaxed detector: under sustained query load a probe can queue behind
  // real scans, and a spurious DOWN mid-rollout would turn the swap of that
  // replica into a recovery instead (skewing the report assertions below).
  ctrl::ControllerConfig cc = FastControllerConfig();
  cc.detector.heartbeat_period_micros = 20'000;
  cc.detector.down_after_misses = 1000;
  ctrl::ClusterController controller(*cluster_, cc);
  controller.Start();

  const std::uint64_t failures_before =
      cluster_->broker(0).partition_failures();

  // Sustained query + update load while the rollout swaps every replica.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::thread load([&] {
    std::uint64_t seed = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const ProductId id = 1 + (seed * 13) % 160;
      const auto record = cluster_->catalog().Get(id);
      if (record) {
        cluster_->Query(QueryImage{id, record->category, seed});
        queries.fetch_add(1, std::memory_order_relaxed);
      }
      ++seed;
    }
  });
  std::thread updates([&] {
    for (int i = 0; i < 30 && !stop.load(std::memory_order_relaxed); ++i) {
      PublishProduct(static_cast<ProductId>(7000 + i), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const ctrl::RolloutReport report = controller.DeployFullIndex();
  stop.store(true);
  load.join();
  updates.join();
  controller.Stop();

  EXPECT_EQ(report.partitions, 2u);
  EXPECT_EQ(report.replicas_updated, 4u);
  EXPECT_EQ(report.replicas_skipped, 0u);
  // The invariant held: no partition was ever fully drained, so no query
  // lost coverage.
  EXPECT_EQ(cluster_->broker(0).partition_failures(), failures_before);
  EXPECT_GT(queries.load(), 0u);

  // Every replica runs the new generation: high-water mark at or past the
  // rollout base.
  ASSERT_TRUE(cluster_->WaitForUpdatesDrained());
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_GE(cluster_->searcher(p, r).applied_sequence(),
                report.base_sequence)
          << "p" << p << " r" << r;
    }
  }
  // The day log was re-based: only the post-rollout delta remains.
  std::uint64_t min_seq = ~0ull;
  cluster_->day_log().Replay([&](const ProductUpdateMessage& m) {
    min_seq = std::min(min_seq, m.sequence);
  });
  if (min_seq != ~0ull) {
    EXPECT_GT(min_seq, report.base_sequence);
  }

  // Updates published after the rollout still apply (consumers reattached).
  PublishProduct(7777, 1);
  ASSERT_TRUE(cluster_->WaitForUpdatesDrained());
  EXPECT_TRUE(WaitUntil([&] { return Finds(7777, 1, 991); }, 2'000'000));
}

TEST_F(CtrlClusterTest, SnapshotAllPartitionsSeedsRecovery) {
  MakeCluster(/*partitions=*/2, /*replicas=*/1);
  ctrl::ControllerConfig cc = FastControllerConfig();
  ctrl::ClusterController controller(*cluster_, cc);
  controller.SnapshotAllPartitions();
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(std::filesystem::exists(
        dir_ / ("partition-" + std::to_string(p) + ".jdvsidx")));
  }

  controller.Start();
  // Single replica per partition: while it is down the partition degrades,
  // and recovery restores it from the base snapshot (no sibling exists).
  Searcher& victim = cluster_->searcher(1, 0);
  victim.Crash();
  ASSERT_TRUE(WaitUntil([&] { return controller.recoveries() >= 1; }));
  controller.Stop();
  EXPECT_TRUE(victim.HasIndex());
  ASSERT_TRUE(cluster_->WaitForUpdatesDrained());
  const auto record = cluster_->catalog().Get(3);
  ASSERT_TRUE(record.has_value());
  EXPECT_NO_THROW(cluster_->Query(QueryImage{3, record->category, 8}));
}

}  // namespace
}  // namespace jdvs
