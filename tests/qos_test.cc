// Tests for the QoS / overload-control subsystem: deadline propagation,
// priority-aware admission, adaptive degradation — unit level against a
// ManualClock, plus end-to-end behavior through the 3-tier cluster (budgets
// cancel downstream work, zero-budget queries never touch a pool, degraded
// responses never enter the result cache).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "obs/registry.h"
#include "qos/admission.h"
#include "qos/deadline.h"
#include "qos/load_controller.h"
#include "search/cluster_builder.h"
#include "search/query_cache.h"
#include "workload/catalog_gen.h"
#include "workload/query_client.h"

namespace jdvs {
namespace {

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultIsUnlimited) {
  ManualClock clock(1'000'000);
  qos::Deadline deadline;
  EXPECT_TRUE(deadline.unlimited());
  EXPECT_FALSE(deadline.Expired(clock));
  clock.AdvanceMicros(qos::Deadline::kNone / 2);
  EXPECT_FALSE(deadline.Expired(clock));
  EXPECT_EQ(deadline.RemainingMicros(clock), qos::Deadline::kNone);
}

TEST(DeadlineTest, FromBudgetExpiresWhenBudgetSpent) {
  ManualClock clock(500);
  const auto deadline = qos::Deadline::FromBudget(clock, 1'000);
  EXPECT_FALSE(deadline.unlimited());
  EXPECT_FALSE(deadline.Expired(clock));
  EXPECT_EQ(deadline.RemainingMicros(clock), 1'000);
  clock.AdvanceMicros(999);
  EXPECT_FALSE(deadline.Expired(clock));
  clock.AdvanceMicros(1);
  EXPECT_TRUE(deadline.Expired(clock));
  EXPECT_LE(deadline.RemainingMicros(clock), 0);
}

TEST(DeadlineTest, ZeroBudgetIsAlreadyExpired) {
  ManualClock clock(42);
  EXPECT_TRUE(qos::Deadline::FromBudget(clock, 0).Expired(clock));
}

TEST(DeadlineTest, ExpiredAtMatchesClockCheck) {
  const auto deadline = qos::Deadline::At(100);
  EXPECT_FALSE(deadline.ExpiredAt(99));
  EXPECT_TRUE(deadline.ExpiredAt(100));
}

TEST(DeadlineTest, IsDeadlineExceededClassifiesErrors) {
  EXPECT_TRUE(qos::IsDeadlineExceeded(
      std::make_exception_ptr(qos::DeadlineExceededError("searcher-3"))));
  EXPECT_FALSE(qos::IsDeadlineExceeded(
      std::make_exception_ptr(std::runtime_error("node failed"))));
  EXPECT_FALSE(qos::IsDeadlineExceeded(nullptr));
}

// --------------------------------------------------------------- Admission

TEST(AdmissionTest, AdmitsExactlyMaxInFlight) {
  ManualClock clock;
  obs::Registry registry;
  qos::AdmissionController admission({.max_in_flight = 2}, clock, &registry);
  auto t1 = admission.TryAdmit(qos::Priority::kInteractive);
  auto t2 = admission.TryAdmit(qos::Priority::kInteractive);
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(admission.total_in_flight(), 2u);
  EXPECT_FALSE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  EXPECT_EQ(admission.shed(qos::Priority::kInteractive), 1u);
  // Releasing a slot re-opens admission.
  t1->Release();
  EXPECT_EQ(admission.total_in_flight(), 1u);
  EXPECT_TRUE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  EXPECT_EQ(admission.admitted(qos::Priority::kInteractive), 3u);
}

TEST(AdmissionTest, TicketReleasesOnDestructionAndMove) {
  ManualClock clock;
  obs::Registry registry;
  qos::AdmissionController admission({.max_in_flight = 1}, clock, &registry);
  {
    auto ticket = admission.TryAdmit(qos::Priority::kInteractive);
    ASSERT_TRUE(ticket.has_value());
    // Move transfers ownership: releasing through the new ticket only.
    qos::AdmissionController::Ticket moved = std::move(*ticket);
    EXPECT_FALSE(ticket->held());
    EXPECT_TRUE(moved.held());
    EXPECT_EQ(admission.total_in_flight(), 1u);
    moved.Release();
    moved.Release();  // idempotent
    EXPECT_EQ(admission.total_in_flight(), 0u);
  }
  EXPECT_EQ(admission.total_in_flight(), 0u);
}

TEST(AdmissionTest, BackgroundClassHasItsOwnCap) {
  ManualClock clock;
  obs::Registry registry;
  qos::AdmissionController admission(
      {.max_in_flight = 4, .max_background_in_flight = 1}, clock, &registry);
  auto bg = admission.TryAdmit(qos::Priority::kBackground);
  ASSERT_TRUE(bg.has_value());
  // A second background query is shed even though total slots remain.
  EXPECT_FALSE(admission.TryAdmit(qos::Priority::kBackground).has_value());
  EXPECT_EQ(admission.shed(qos::Priority::kBackground), 1u);
  // Interactive traffic still gets the remaining shared slots.
  auto i1 = admission.TryAdmit(qos::Priority::kInteractive);
  auto i2 = admission.TryAdmit(qos::Priority::kInteractive);
  auto i3 = admission.TryAdmit(qos::Priority::kInteractive);
  EXPECT_TRUE(i1.has_value() && i2.has_value() && i3.has_value());
  EXPECT_FALSE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  EXPECT_EQ(admission.in_flight(qos::Priority::kBackground), 1u);
  EXPECT_EQ(admission.in_flight(qos::Priority::kInteractive), 3u);
}

TEST(AdmissionTest, TokenBucketBoundsAdmissionRate) {
  ManualClock clock(1'000'000);
  obs::Registry registry;
  // 2 tokens/sec, burst of 2, unlimited concurrency: rate is the only gate.
  qos::AdmissionController admission(
      {.tokens_per_sec = 2.0, .token_burst = 2.0}, clock, &registry);
  EXPECT_TRUE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  EXPECT_TRUE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  // Bucket drained; concurrency slots are free but the rate gate sheds.
  EXPECT_FALSE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  clock.AdvanceMicros(500'000);  // refills one token
  EXPECT_TRUE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  EXPECT_FALSE(admission.TryAdmit(qos::Priority::kInteractive).has_value());
  EXPECT_EQ(admission.shed(qos::Priority::kInteractive), 2u);
}

TEST(AdmissionTest, ExportsPerClassCounters) {
  ManualClock clock;
  obs::Registry registry;
  qos::AdmissionController admission({.max_in_flight = 1}, clock, &registry);
  auto ticket = admission.TryAdmit(qos::Priority::kInteractive);
  ASSERT_TRUE(ticket.has_value());
  admission.TryAdmit(qos::Priority::kInteractive);  // shed
  const auto* admitted = registry.FindCounter(
      obs::Labeled("jdvs_qos_admitted_total", "class", "interactive"));
  const auto* shed = registry.FindCounter(
      obs::Labeled("jdvs_qos_shed_total", "class", "interactive"));
  ASSERT_NE(admitted, nullptr);
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(admitted->Value(), 1u);
  EXPECT_EQ(shed->Value(), 1u);
}

// ---------------------------------------------------------- LoadController

qos::LoadControlConfig FastLoadConfig() {
  qos::LoadControlConfig config;
  config.p99_degrade_micros = 1'000;
  config.window_micros = 1'000;
  config.min_window_samples = 1;
  config.upgrade_after_windows = 1;
  config.downgrade_after_windows = 2;
  config.calm_fraction = 0.5;
  return config;
}

TEST(LoadControllerTest, StepsUpUnderSlowWindowsAndDownAfterCalm) {
  ManualClock clock;
  obs::Registry registry;
  qos::LoadController controller(FastLoadConfig(), clock, &registry);
  EXPECT_EQ(controller.level(), 0);

  // Two overloaded windows climb the ladder to the top.
  for (int expected : {1, 2}) {
    controller.Observe(5'000, 1);
    clock.AdvanceMicros(1'001);
    controller.Poll();
    EXPECT_EQ(controller.level(), expected);
  }
  // Further overload holds at max_level.
  controller.Observe(5'000, 1);
  clock.AdvanceMicros(1'001);
  controller.Poll();
  EXPECT_EQ(controller.level(), 2);
  EXPECT_EQ(controller.steps_up(), 2u);

  // Each step down needs downgrade_after_windows consecutive calm windows.
  int expected_level = 2;
  for (int window = 0; window < 4; ++window) {
    controller.Observe(100, 0);  // well below calm_fraction * threshold
    clock.AdvanceMicros(1'001);
    controller.Poll();
    if (window % 2 == 1) --expected_level;
    EXPECT_EQ(controller.level(), expected_level);
  }
  EXPECT_EQ(controller.level(), 0);
  EXPECT_EQ(controller.steps_down(), 2u);
  const auto* gauge = registry.FindGauge("jdvs_qos_degradation_level");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Value(), 0);
}

TEST(LoadControllerTest, HysteresisBandHoldsLevel) {
  ManualClock clock;
  obs::Registry registry;
  qos::LoadController controller(FastLoadConfig(), clock, &registry);
  controller.Observe(5'000, 1);
  clock.AdvanceMicros(1'001);
  controller.Poll();
  ASSERT_EQ(controller.level(), 1);
  // p99 in (calm_fraction * threshold, threshold): neither overloaded nor
  // calm — the level must not flap in either direction.
  for (int window = 0; window < 6; ++window) {
    controller.Observe(700, 1);
    clock.AdvanceMicros(1'001);
    controller.Poll();
    EXPECT_EQ(controller.level(), 1);
  }
}

TEST(LoadControllerTest, QueueDepthAloneTriggersDegradation) {
  ManualClock clock;
  obs::Registry registry;
  qos::LoadControlConfig config;
  config.queue_degrade_depth = 4;
  config.window_micros = 1'000;
  config.min_window_samples = 1;
  qos::LoadController controller(config, clock, &registry);
  controller.Observe(10, 5);  // fast but deeply queued
  clock.AdvanceMicros(1'001);
  controller.Poll();
  EXPECT_EQ(controller.level(), 1);
}

TEST(LoadControllerTest, SparseWindowDoesNotEvaluateP99) {
  ManualClock clock;
  obs::Registry registry;
  qos::LoadControlConfig config = FastLoadConfig();
  config.min_window_samples = 8;
  qos::LoadController controller(config, clock, &registry);
  // Three slow stragglers are not an overload signal.
  controller.Observe(50'000, 1);
  controller.Observe(50'000, 1);
  controller.Observe(50'000, 1);
  clock.AdvanceMicros(1'001);
  controller.Poll();
  EXPECT_EQ(controller.level(), 0);
}

TEST(LoadControllerTest, PollStepsDownWhenTrafficVanishes) {
  ManualClock clock;
  obs::Registry registry;
  qos::LoadController controller(FastLoadConfig(), clock, &registry);
  controller.Observe(5'000, 1);
  clock.AdvanceMicros(1'001);
  controller.Poll();
  ASSERT_EQ(controller.level(), 1);
  // No queries complete anymore; Poll alone must rotate the (empty = calm)
  // windows so readers like the recovery backoff loop see the level drop.
  for (int window = 0; window < 2; ++window) {
    clock.AdvanceMicros(1'001);
    controller.Poll();
  }
  EXPECT_EQ(controller.level(), 0);
}

// -------------------------------------------------- QueryCache gating

FeatureVector RandomVector(Rng& rng, std::size_t dim) {
  FeatureVector v(dim);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian()) * 4.f;
  return v;
}

TEST(QosQueryCacheTest, DegradedResponsesAreNeverCached) {
  ManualClock clock;
  QueryCache cache(16, {}, clock);
  Rng rng(11);
  const auto q = RandomVector(rng, 16);
  const auto key = cache.KeyFor(q, 10, 0);

  QueryResponse degraded_effort;
  degraded_effort.results.push_back(RankedResult{});
  degraded_effort.degradation_level = 1;
  cache.Insert(key, 0, degraded_effort);
  EXPECT_FALSE(cache.Lookup(key, 0).has_value());

  QueryResponse partial_coverage;
  partial_coverage.results.push_back(RankedResult{});
  partial_coverage.degraded = true;  // broker slots failed
  cache.Insert(key, 0, partial_coverage);
  EXPECT_FALSE(cache.Lookup(key, 0).has_value());
  EXPECT_EQ(cache.stats().rejected_degraded, 2u);

  // A full-effort, full-coverage response still caches.
  QueryResponse full;
  full.results.push_back(RankedResult{});
  cache.Insert(key, 0, full);
  EXPECT_TRUE(cache.Lookup(key, 0).has_value());
}

// ------------------------------------------------------ cluster end-to-end

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

std::uint64_t TierDeadlines(VisualSearchCluster& cluster, const char* tier) {
  const auto* counter = cluster.registry().FindCounter(
      obs::Labeled("jdvs_qos_deadline_exceeded_total", "tier", tier));
  return counter != nullptr ? counter->Value() : 0;
}

TEST(QosClusterTest, ZeroBudgetShedsAtAdmissionWithoutTouchingPool) {
  auto cluster = MakeCluster();
  Blender& blender = cluster->blender(0);
  QueryOptions options{.k = 10, .nprobe = 0};
  options.budget_micros = 0;  // no time left before the query even starts
  EXPECT_THROW(blender.Search(QueryFor(*cluster, 5, 1), options),
               qos::DeadlineExceededError);
  // Shed before admission: no slot was ever taken, no pool thread ran.
  EXPECT_EQ(blender.admission().admitted(qos::Priority::kInteractive), 0u);
  EXPECT_EQ(blender.in_flight(), 0u);
  EXPECT_EQ(blender.queries_shed(), 1u);
  const auto* extract = cluster->registry().FindHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "extract"));
  ASSERT_NE(extract, nullptr);
  EXPECT_EQ(extract->Count(), 0u);
  EXPECT_EQ(TierDeadlines(*cluster, "blender"), 1u);
  EXPECT_EQ(TierDeadlines(*cluster, "searcher"), 0u);
}

TEST(QosClusterTest, SearcherShedsExpiredWorkBeforeScanning) {
  auto cluster = MakeCluster();
  const auto* scans = cluster->registry().FindHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "searcher_scan"));
  ASSERT_NE(scans, nullptr);
  // Sanity: a live deadline scans normally.
  Searcher& searcher = cluster->searcher(0);
  auto live = searcher.SearchAsync(
      FeatureVector(16, 0.f), 5,
      {.deadline =
           qos::Deadline::FromBudget(MonotonicClock::Instance(), 10'000'000)});
  EXPECT_NO_THROW(live.get());
  const auto scans_before = scans->Count();
  EXPECT_EQ(scans_before, 1u);
  // An expired deadline is re-checked on the searcher's pool thread and
  // fails fast without running the scan.
  auto dead = searcher.SearchAsync(
      FeatureVector(16, 0.f), 5,
      {.deadline = qos::Deadline::FromBudget(MonotonicClock::Instance(), 0)});
  EXPECT_THROW(dead.get(), qos::DeadlineExceededError);
  EXPECT_EQ(scans->Count(), scans_before);
  EXPECT_EQ(TierDeadlines(*cluster, "searcher"), 1u);
}

TEST(QosClusterTest, BrokerShedsExpiredFanOutBeforeDispatch) {
  auto cluster = MakeCluster();
  const auto* scans = cluster->registry().FindHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "searcher_scan"));
  ASSERT_NE(scans, nullptr);
  auto dead = cluster->broker(0).SearchAsync(
      FeatureVector(16, 0.f), 5,
      {.deadline = qos::Deadline::FromBudget(MonotonicClock::Instance(), 0)});
  EXPECT_THROW(dead.get(), qos::DeadlineExceededError);
  // The fan-out never dispatched: no searcher scanned, no searcher raised.
  EXPECT_EQ(scans->Count(), 0u);
  EXPECT_EQ(TierDeadlines(*cluster, "broker"), 1u);
  EXPECT_EQ(TierDeadlines(*cluster, "searcher"), 0u);
  EXPECT_EQ(cluster->broker(0).in_flight(), 0u);
}

TEST(QosClusterTest, MidPipelineExpiryCancelsDownstreamWork) {
  // Slow bottom tier: the 50 ms searcher request hop devours a 10 ms budget
  // mid-pipeline, after the blender and broker checks already passed.
  ClusterConfig config = SmallConfig();
  config.searcher_latency = LatencyModel{.base_micros = 50'000};
  auto cluster = MakeCluster(config);

  // Baseline: an unbudgeted query completes (slowly) and scans partitions.
  const auto ok = cluster->Query(QueryFor(*cluster, 7, 1));
  EXPECT_FALSE(ok.results.empty());
  const auto* scans = cluster->registry().FindHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "searcher_scan"));
  ASSERT_NE(scans, nullptr);
  const auto scans_before = scans->Count();
  EXPECT_GT(scans_before, 0u);

  QueryOptions options{.k = 10, .nprobe = 0};
  options.budget_micros = 10'000;
  EXPECT_THROW(cluster->blender(0).Search(QueryFor(*cluster, 7, 2), options),
               qos::DeadlineExceededError);
  // The budget died inside the searcher hop: every queued scan was shed on
  // arrival, counter-verified at the searcher tier, and no broker burned a
  // failover retrying a timed-out replica.
  EXPECT_EQ(scans->Count(), scans_before);
  EXPECT_GE(TierDeadlines(*cluster, "searcher"), 1u);
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    EXPECT_EQ(cluster->broker(b).failovers(), 0u);
  }
  EXPECT_EQ(cluster->blender(0).in_flight(), 0u);
}

TEST(QosClusterTest, DegradationStepsDownEffortAndSkipsCache) {
  ClusterConfig config = SmallConfig();
  config.num_blenders = 1;
  config.blender_result_cache = true;
  config.blender_cache.ttl_micros = 60'000'000;
  // Degrade on any completed query: p99 threshold of 1 us over 1 ms windows
  // makes every window overloaded, and the calm band (p99 < 0.7 us) is
  // unreachable, so the level ratchets to 2 and stays — deterministic.
  config.load_control.p99_degrade_micros = 1;
  config.load_control.window_micros = 1'000;
  config.load_control.min_window_samples = 1;
  auto cluster = MakeCluster(config);
  ASSERT_NE(cluster->load_controller(), nullptr);

  int reached = 0;
  for (int i = 0; i < 50 && reached < 2; ++i) {
    const auto response =
        cluster->Query(QueryFor(*cluster, 1 + (i % 100), i));
    reached = response.degradation_level;
    std::this_thread::sleep_for(std::chrono::microseconds(1'500));
  }
  ASSERT_EQ(reached, 2) << "load controller never reached full degradation";
  EXPECT_EQ(cluster->load_controller()->level(), 2);
  EXPECT_GE(cluster->load_controller()->steps_up(), 2u);

  // Degraded responses still answer (shrunk nprobe, no rerank) but are
  // never inserted into the result cache.
  const QueryImage repeat = QueryFor(*cluster, 9, 3);
  const auto first = cluster->Query(repeat);
  EXPECT_EQ(first.degradation_level, 2);
  EXPECT_FALSE(first.results.empty());
  EXPECT_FALSE(first.from_cache);
  const auto second = cluster->Query(repeat);
  EXPECT_FALSE(second.from_cache);
  ASSERT_NE(cluster->blender(0).result_cache(), nullptr);
  EXPECT_GE(cluster->blender(0).result_cache()->stats().rejected_degraded, 2u);

  const auto* degraded_l2 = cluster->registry().FindCounter(
      obs::Labeled("jdvs_qos_degraded_queries_total", "level", "2"));
  ASSERT_NE(degraded_l2, nullptr);
  EXPECT_GE(degraded_l2->Value(), 1u);
}

TEST(QosClusterTest, DrainNotificationCompletesPromptly) {
  auto cluster = MakeCluster();
  // Nothing published: the predicate holds at entry.
  EXPECT_TRUE(cluster->WaitForUpdatesDrained(1'000));
  for (int i = 0; i < 50; ++i) {
    ProductUpdateMessage m;
    m.type = UpdateType::kAddProduct;
    m.product_id = 9000 + i;
    m.category_id = i % 8;
    m.image_urls.push_back(MakeImageUrl(9000 + i, 0));
    cluster->PublishUpdate(m);
  }
  // The consumer's progress listener wakes the waiter; no sleep-polling.
  EXPECT_TRUE(cluster->WaitForUpdatesDrained());
  // Each message is routed to the partition of its one image: that
  // partition's searcher applies it, and every searcher counts all 50.
  std::vector<std::uint64_t> routed(cluster->config().num_partitions, 0);
  for (int i = 0; i < 50; ++i) {
    ++routed[cluster->partitioner().PartitionOf(MakeImageUrl(9000 + i, 0))];
  }
  for (std::size_t p = 0; p < routed.size(); ++p) {
    EXPECT_EQ(cluster->searcher(p).update_counters().TotalMessages(),
              routed[p]);
    EXPECT_EQ(cluster->searcher(p).messages_consumed(), 50u);
  }
}

// --------------------------------------------------------- workload client

TEST(QosWorkloadTest, ClosedLoopRetriesBackOffOnOverload) {
  ClusterConfig config = SmallConfig();
  config.num_blenders = 1;
  config.blender_max_in_flight = 1;  // one slot: collisions shed
  config.query_extraction_micros = 500;
  auto cluster = MakeCluster(config);
  QueryWorkloadConfig qc;
  qc.num_threads = 8;
  qc.queries_per_thread = 15;
  qc.max_retries = 8;
  qc.retry_backoff_micros = 50;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult result = client.Run();
  EXPECT_EQ(result.queries + result.errors, 120u);
  // 8 closed-loop users against one admission slot must collide.
  EXPECT_GT(result.retries, 0u);
  EXPECT_GT(result.retry_backoff_micros, 0u);
}

TEST(QosWorkloadTest, OpenLoopOverloadAccountingBalances) {
  ClusterConfig config = SmallConfig();
  config.num_blenders = 1;
  config.num_brokers = 1;
  config.blender_max_in_flight = 2;
  config.query_extraction_micros = 2'000;
  auto cluster = MakeCluster(config);
  QueryWorkloadConfig qc;
  qc.arrival_qps = 2'000.0;       // far past the ~1k QPS the 2-thread
  qc.duration_micros = 200'000;   // blender with 2 ms extraction can serve
  qc.slo_micros = 100'000;
  QueryClient client(*cluster, qc);
  const OpenLoopResult result = client.RunOpenLoop();
  EXPECT_GT(result.offered, 100u);
  // Every offered query is accounted for exactly once.
  EXPECT_EQ(result.offered,
            result.completed + result.overload_errors +
                result.deadline_errors + result.other_errors +
                result.timed_out_in_flight);
  // Open-loop arrivals past saturation must shed at admission.
  EXPECT_GT(result.overload_errors, 0u);
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.latency_micros->Count(), result.completed);
  EXPECT_GT(result.offered_qps, 0.0);
  EXPECT_LE(result.goodput_qps, result.completed_qps + 1e-9);
}

}  // namespace
}  // namespace jdvs
