// Availability under searcher failures (Section 2.4).
//
// Paper claim: "Each partition can have multiple copies for availability"
// and brokers/blenders have "multiple identical instances for load balancing
// and fault tolerance."
//
// Harness, three escalating modes under a sustained closed-loop query load:
//
//   replicas=1            searchers killed/revived by the chaos thread; every
//                         query issued during an outage silently loses that
//                         partition's candidates.
//   replicas=2            same chaos; brokers fail over to the sibling
//                         replica, coverage holds.
//   replicas=2 + ctrl     chaos *crashes* searchers (index and high-water
//                         mark wiped, never revived by hand); the control
//                         plane detects the outage over heartbeats, restores
//                         the index from the partition's base snapshot,
//                         replays the day-log backlog, and re-admits the
//                         replica — recoveries and mean MTTR are reported.
//
// A final section runs a rolling full-index deployment (DeployFullIndex)
// under the same live load: every replica swaps to a freshly built index one
// at a time, and the >=1-serving-replica invariant keeps the partial-answer
// counter flat.
//
// Gray-failure section (network faults the heartbeat detector cannot see):
//
//   limping replica       replica 0 of every partition answers with 50x hop
//                         latency but stays alive and acking. Undefended,
//                         half of each partition's dispatches land on the
//                         limper and the latency distribution collapses;
//                         defended (latency-aware selection + adaptive
//                         hedging + per-RPC timeouts), the broker routes
//                         around it and hedges the exploration traffic, so
//                         p99 stays within 2x the fault-free baseline.
//   lossy network         every searcher link silently drops a few percent
//                         of requests/replies. Undefended a dropped message
//                         hangs its query forever (open-loop: counted as
//                         timed_out_in_flight); defended the per-RPC timeout
//                         fires and the slot fails over, so success rate
//                         returns to ~100%.
//
// Disk-fault section (tiered snapshots + integrity layer, --disk-only to
// run it alone):
//
//   bit-flip corruption    every replica-0 tiered file gets one payload bit
//                          flipped on disk. Scrubbers and first fault-ins
//                          catch the checksum mismatch, quarantine the list,
//                          and queries complete degraded — never a wrong
//                          pair, never a crash. The control plane re-images
//                          each sick replica from its healthy sibling
//                          (quarantine repair) and the cluster returns to
//                          full health; repair MTTR is reported.
//
// Flags: --seed=N (fault schedule + workload seed), --quick (short windows
// for CI smoke), --disk-only (only the disk-fault section), --json (write
// BENCH_chaos_availability.json).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/fault_injector.h"

namespace {

using namespace jdvs;
using namespace jdvs::bench;

constexpr std::size_t kPartitions = 8;

struct ChaosResult {
  double qps;
  double hit_rate;
  std::uint64_t errors;
  std::uint64_t failovers;
  std::uint64_t partition_failures;
  std::uint64_t degraded;
  std::uint64_t recoveries;
  double mttr_ms;
};

TestbedOptions ChaosOptions() {
  TestbedOptions options;
  options.num_products = 5000;
  options.num_partitions = kPartitions;
  options.query_extraction_micros = 2000;
  return options;
}

std::uint64_t SumDegraded(VisualSearchCluster& cluster) {
  std::uint64_t degraded = 0;
  for (std::size_t b = 0; b < cluster.num_blenders(); ++b) {
    const obs::Counter* c = cluster.registry().FindCounter(
        obs::Labeled("jdvs_blender_degraded_total", "blender",
                     cluster.blender(b).node().name()));
    if (c != nullptr) degraded += c->Value();
  }
  return degraded;
}

ChaosResult Run(std::size_t replicas, bool control_plane,
                const std::string& snapshot_dir) {
  const TestbedOptions options = ChaosOptions();
  auto cluster = std::make_unique<VisualSearchCluster>([&] {
    ClusterConfig config = MakeTestbedConfig(options);
    config.replicas_per_partition = replicas;
    return config;
  }());
  CatalogGenConfig cg;
  cg.num_products = options.num_products;
  cg.num_categories = 50;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();

  std::unique_ptr<ctrl::ClusterController> controller;
  if (control_plane) {
    ctrl::ControllerConfig cc;
    // Detection budget ~60ms: on the single-core bench host the probe shares
    // the searcher pool with 16 threads of scans, so a tighter budget reads
    // scheduler noise as outages and recovers healthy replicas.
    cc.detector.heartbeat_period_micros = 10'000;
    cc.detector.suspect_after_misses = 2;
    cc.detector.down_after_misses = 6;
    cc.recovery_poll_micros = 2'000;
    cc.snapshot_dir = snapshot_dir;
    controller = std::make_unique<ctrl::ClusterController>(*cluster, cc);
    controller->SnapshotAllPartitions();  // warm base images for recovery
    controller->Start();
  }

  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      if (control_plane) {
        // Hard crash, no manual revive: only the controller brings the
        // replica back. Crash only an UP replica so we never yank one the
        // controller is mid-way through restoring.
        const std::size_t p = rng.Below(kPartitions);
        if (cluster->replica_states().Get(cluster->replica_slot(p, 0)) ==
            ctrl::ReplicaState::kUp) {
          cluster->searcher(p, 0).Crash();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(800));
      } else {
        // Kill/revive by hand (the pre-control-plane harness): two random
        // primary searchers down 400ms out of every 800ms.
        Searcher& a = cluster->searcher(rng.Below(kPartitions), 0);
        Searcher& b = cluster->searcher(rng.Below(kPartitions), 0);
        a.node().set_failed(true);
        b.node().set_failed(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        a.node().set_failed(false);
        b.node().set_failed(false);
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      }
    }
  });

  QueryWorkloadConfig qc;
  qc.num_threads = 16;
  qc.duration_micros = 6'000'000;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult result = client.Run();
  stop.store(true, std::memory_order_release);
  chaos.join();

  std::uint64_t failovers = 0;
  std::uint64_t partition_failures = 0;
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    failovers += cluster->broker(b).failovers();
    partition_failures += cluster->broker(b).partition_failures();
  }
  ChaosResult out{result.qps,
                  result.subject_hit_rate,
                  result.errors,
                  failovers,
                  partition_failures,
                  SumDegraded(*cluster),
                  0,
                  0.0};
  if (controller) {
    out.recoveries = controller->recoveries();
    out.mttr_ms = controller->MeanRecoveryMicros() / 1000.0;
    controller->Stop();
  }
  cluster->Stop();
  return out;
}

struct RollingDeployResult {
  double qps;
  std::uint64_t errors;
  std::size_t replicas_updated;
  std::size_t replicas_skipped;
  std::size_t partitions;
  double elapsed_seconds;
  std::size_t catchup_replayed;
  std::size_t invariant_waits;
  std::uint64_t partial_during;
};

RollingDeployResult RunRollingDeployment(const std::string& snapshot_dir) {
  std::printf("\nRolling full-index deployment under live load "
              "(2 replicas/partition):\n");
  const TestbedOptions options = ChaosOptions();
  auto cluster = std::make_unique<VisualSearchCluster>([&] {
    ClusterConfig config = MakeTestbedConfig(options);
    config.replicas_per_partition = 2;
    return config;
  }());
  CatalogGenConfig cg;
  cg.num_products = options.num_products;
  cg.num_categories = 50;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();

  ctrl::ControllerConfig cc;
  cc.snapshot_dir = snapshot_dir;
  ctrl::ClusterController controller(*cluster, cc);
  controller.Start();

  std::uint64_t failures_before = 0;
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    failures_before += cluster->broker(b).partition_failures();
  }

  // Query load for the whole rollout, plus a trickle of real-time updates
  // the swapped replicas must catch up over before rejoining. The rollout
  // runs in the background while the closed-loop client hammers the front
  // end for a fixed window sized to cover it.
  std::atomic<bool> stop{false};
  std::thread updates([&] {
    std::uint64_t next_id = 900'000;
    Rng rng(7);
    while (!stop.load(std::memory_order_acquire)) {
      ProductUpdateMessage add;
      add.type = UpdateType::kAddProduct;
      add.product_id = next_id;
      add.category_id = static_cast<CategoryId>(rng.Below(50));
      add.attributes = {.sales = 5, .price_cents = 1000, .praise = 2};
      add.image_urls.push_back(MakeImageUrl(next_id, 0));
      ++next_id;
      cluster->PublishUpdate(std::move(add));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  ctrl::RolloutReport report;
  std::thread rollout([&] { report = controller.DeployFullIndex(); });

  QueryWorkloadConfig qc;
  qc.num_threads = 16;
  qc.duration_micros = 8'000'000;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult load = client.Run();

  rollout.join();
  stop.store(true, std::memory_order_release);
  updates.join();
  controller.Stop();

  std::uint64_t failures_after = 0;
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    failures_after += cluster->broker(b).partition_failures();
  }
  std::printf("  load during rollout:    %.0f QPS, hit rate %.2f, %llu "
              "errors\n",
              load.qps, load.subject_hit_rate,
              (unsigned long long)load.errors);
  std::printf("  replicas swapped:       %zu (%zu skipped) across %zu "
              "partitions\n",
              report.replicas_updated, report.replicas_skipped,
              report.partitions);
  std::printf("  rollout elapsed:        %.2f s\n",
              static_cast<double>(report.elapsed_micros) / 1e6);
  std::printf("  base sequence:          %llu (delta replayed: %zu "
              "messages)\n",
              (unsigned long long)report.base_sequence,
              report.catchup_replayed);
  std::printf("  invariant waits:        %zu\n", report.invariant_waits);
  std::printf("  partial answers during: %llu (the >=1-serving-replica "
              "invariant held)\n",
              (unsigned long long)(failures_after - failures_before));
  cluster->Stop();
  return RollingDeployResult{load.qps,
                             load.errors,
                             report.replicas_updated,
                             report.replicas_skipped,
                             report.partitions,
                             static_cast<double>(report.elapsed_micros) / 1e6,
                             report.catchup_replayed,
                             report.invariant_waits,
                             failures_after - failures_before};
}

// ---- Gray failures: limping replica and lossy network ----

// Defense bundle the "defended" rows turn on; everything defaults off so the
// undefended rows reproduce the pre-defense behavior exactly.
void EnableGrayDefenses(ClusterConfig& config) {
  config.searcher_rpc_timeout_micros = 60'000;
  config.broker_rpc_timeout_micros = 250'000;
  config.enable_hedging = true;  // hedge_delay 0 = adaptive (3x best EWMA)
  config.latency_aware_selection = true;
}

struct LimpingRow {
  const char* label;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t errors = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t ejections = 0;  // latency outliers marked SUSPECT by ctrl
};

// Closed-loop load against a cluster where replica 0 of every partition is
// 50x slow on the wire (heartbeats still ack — a pure gray failure).
LimpingRow RunLimping(const char* label, std::uint64_t seed, Micros window,
                      bool inject, bool defended) {
  FaultInjector injector(seed);
  TestbedOptions options = ChaosOptions();
  options.seed = seed;
  auto cluster = std::make_unique<VisualSearchCluster>([&] {
    ClusterConfig config = MakeTestbedConfig(options);
    config.replicas_per_partition = 2;
    if (inject) config.fault_injector = &injector;
    if (defended) EnableGrayDefenses(config);
    return config;
  }());
  CatalogGenConfig cg;
  cg.num_products = options.num_products;
  cg.num_categories = 50;
  cg.seed = seed ^ 0x11;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();
  // Defended also runs the failure detector with latency-outlier ejection:
  // the limpers' EWMAs (fed by the brokers through the shared replica state
  // table) blow past 3x the healthy median and get marked SUSPECT even
  // though every heartbeat acks — the gray-failure gap the heartbeat-only
  // detector can't close.
  std::unique_ptr<ctrl::ClusterController> controller;
  if (defended) {
    ctrl::ControllerConfig cc;
    cc.detector.heartbeat_period_micros = 10'000;
    cc.detector.suspect_after_misses = 2;
    cc.detector.down_after_misses = 6;
    cc.detector.latency_outlier_factor = 3.0;
    cc.detector.latency_outlier_min_micros = 5'000;
    controller = std::make_unique<ctrl::ClusterController>(*cluster, cc);
    controller->Start();
  }
  if (inject) {
    for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
      for (std::size_t p = 0; p < kPartitions; ++p) {
        injector.SetLink(cluster->broker(b).name(),
                         cluster->searcher(p, 0).name(),
                         LinkFaults{.latency_multiplier = 50.0});
      }
    }
  }

  QueryWorkloadConfig qc;
  qc.num_threads = 16;
  qc.duration_micros = window;
  qc.seed = seed;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult result = client.Run();

  LimpingRow row{label};
  row.qps = result.qps;
  row.p50_ms = result.latency_micros->P50() / 1000.0;
  row.p99_ms = result.latency_micros->P99() / 1000.0;
  row.errors = result.errors;
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    row.hedges += cluster->broker(b).hedges();
    row.hedge_wins += cluster->broker(b).hedge_wins();
    row.rpc_timeouts += cluster->broker(b).rpc_timeouts();
  }
  if (const obs::Counter* c = cluster->registry().FindCounter(
          "jdvs_ctrl_latency_ejections_total")) {
    row.ejections = c->Value();
  }
  if (controller) controller->Stop();
  cluster->Stop();
  return row;
}

struct LossyRow {
  const char* label;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  double success_rate = 0.0;
  std::uint64_t timeout_errors = 0;
  std::uint64_t hung = 0;  // timed_out_in_flight: never answered at all
  std::uint64_t degraded = 0;
  double p99_ms = 0.0;
};

// Open-loop load (arrivals don't wait on completions — a hung query can't
// throttle the client into hiding the outage) against a fabric that
// silently drops a few percent of searcher-bound messages.
LossyRow RunLossy(const char* label, std::uint64_t seed, Micros window,
                  double arrival_qps, bool inject, bool defended) {
  FaultInjector injector(seed ^ 0x5a5a);
  TestbedOptions options = ChaosOptions();
  options.seed = seed;
  auto cluster = std::make_unique<VisualSearchCluster>([&] {
    ClusterConfig config = MakeTestbedConfig(options);
    config.replicas_per_partition = 2;
    if (inject) config.fault_injector = &injector;
    if (defended) EnableGrayDefenses(config);
    return config;
  }());
  CatalogGenConfig cg;
  cg.num_products = options.num_products;
  cg.num_categories = 50;
  cg.seed = seed ^ 0x11;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();
  if (inject) {
    // Wildcard rule per searcher node: every link into it is lossy, both
    // request and reply directions.
    for (std::size_t p = 0; p < kPartitions; ++p) {
      for (std::size_t r = 0; r < 2; ++r) {
        injector.SetNode(cluster->searcher(p, r).name(),
                         LinkFaults{.drop_probability = 0.02,
                                    .reply_drop_probability = 0.01});
      }
    }
  }

  QueryWorkloadConfig qc;
  qc.duration_micros = window;
  qc.seed = seed;
  qc.arrival_qps = arrival_qps;
  qc.drain_timeout_micros = 3'000'000;
  QueryClient client(*cluster, qc);
  const OpenLoopResult result = client.RunOpenLoop();

  LossyRow row{label};
  row.offered = result.offered;
  row.completed = result.completed;
  row.success_rate =
      result.offered > 0
          ? static_cast<double>(result.completed) /
                static_cast<double>(result.offered)
          : 0.0;
  row.timeout_errors = result.timeout_errors;
  row.hung = result.timed_out_in_flight;
  row.degraded = result.degraded;
  row.p99_ms = result.latency_micros->P99() / 1000.0;
  cluster->Stop();
  return row;
}

// ---- Disk faults: on-disk corruption under the tiered index ----

struct DiskFaultResult {
  std::size_t corrupted_replicas = 0;
  std::uint64_t verify_queries = 0;
  std::uint64_t probe_errors = 0;      // probes that failed outright (goal: 0)
  std::uint64_t degraded_verify = 0;   // degraded responses while quarantined
  std::uint64_t wrong_pairs = 0;       // returned pairs deviating from truth
  std::uint64_t quarantined_lists = 0; // across corrupt replicas, pre-repair
  std::uint64_t scrub_lists = 0;
  std::uint64_t scrub_corrupt = 0;
  double load_qps = 0.0;
  std::uint64_t load_errors = 0;
  double load_hit_rate = 0.0;
  std::uint64_t repairs = 0;
  std::uint64_t recoveries = 0;  // sick replicas the detector re-imaged instead
  double repair_mttr_ms = 0.0;
  std::uint64_t degraded_after = 0;    // degraded responses post-repair
  std::uint64_t wrong_pairs_after = 0;
  std::uint64_t quarantined_after = 0;
  std::uint64_t blender_degraded = 0;  // jdvs_blender_degraded_total
};

// One verification probe: a fixed (product, seed) query plus the feature the
// blender will deterministically extract for it. Every returned hit is then
// checked against first principles — the true squared-L2 distance between
// that feature and the hit image's stored feature — so a corrupt payload
// that survived into an answer shows up as a wrong pair no matter how the
// candidate pool or ranking shifts.
struct VerifyProbe {
  QueryImage query;
  FeatureVector feature;
};

float SquaredL2(const FeatureVector& a, const FeatureVector& b) {
  float sum = 0.f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

DiskFaultResult RunDiskFaults(std::uint64_t seed, bool quick,
                              const std::string& snapshot_dir) {
  FaultInjector injector(seed ^ 0xD15C);
  TestbedOptions options = ChaosOptions();
  options.seed = seed;
  auto cluster = std::make_unique<VisualSearchCluster>([&] {
    ClusterConfig config = MakeTestbedConfig(options);
    config.replicas_per_partition = 2;
    config.fault_injector = &injector;
    return config;
  }());
  CatalogGenConfig cg;
  cg.num_products = options.num_products;
  cg.num_categories = 50;
  cg.seed = seed ^ 0x11;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();

  // Re-serve every replica through its own private tiered (mmap) file, with
  // a background scrubber walking the checksums. Private files so one
  // replica's corruption cannot leak into its sibling.
  std::vector<std::string> files(kPartitions * 2);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    for (std::size_t r = 0; r < 2; ++r) {
      const std::string path = snapshot_dir + "/disk-partition-" +
                               std::to_string(p) + "-replica-" +
                               std::to_string(r) + "-g0.jdvsidx";
      Searcher& searcher = cluster->searcher(p, r);
      searcher.SaveIndexSnapshot(path);
      searcher.InstallFromTieredSnapshot(path, /*resident_budget_bytes=*/0);
      TierScrubConfig sc;
      sc.poll_micros = 2'000;
      sc.lists_per_slice = 16;
      searcher.StartTierScrub(sc);
      files[cluster->replica_slot(p, r)] = path;
    }
  }

  // Fixed probe set. Extraction is deterministic in (product, category,
  // seed), so the feature computed here is exactly the one the blender will
  // extract each time the probe is re-issued.
  const std::size_t num_probes = quick ? 24 : 64;
  std::vector<VerifyProbe> probes;
  Rng rng(seed ^ 0x7EE7);
  while (probes.size() < num_probes) {
    const ProductId pid =
        static_cast<ProductId>(1 + rng.Below(options.num_products));
    const auto record = cluster->catalog().Get(pid);
    if (!record) continue;
    VerifyProbe probe;
    probe.query.subject_product = pid;
    probe.query.true_category = record->category;
    probe.query.query_seed = rng.Next64();
    probe.feature = cluster->embedder().ExtractQuery(pid, record->category,
                                                     probe.query.query_seed);
    probes.push_back(std::move(probe));
  }

  // Corrupt: flip one bit inside the first non-empty payload segment of
  // replica 0's file in every partition, then drop residency so the next
  // fault-in re-reads the poisoned bytes from disk.
  DiskFaultResult out;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    const std::string& path = files[cluster->replica_slot(p, 0)];
    const TieredDirectoryInfo dir = ReadTieredDirectory(path);
    for (const TieredSegmentInfo& seg : dir.segments) {
      if (seg.bytes == 0) continue;
      if (FaultInjector::FlipBit(path, seg.offset, seg.bytes, seed ^ p)) {
        ++out.corrupted_replicas;
      }
      break;
    }
    cluster->searcher(p, 0).DropTierResidency();
  }

  // Degraded window (no repair yet): every probe must complete, and every
  // returned pair must match first principles — the quarantine may shrink
  // coverage (degraded) but never distort an answer.
  auto run_probes = [&](std::uint64_t* degraded, std::uint64_t* wrong) {
    for (const VerifyProbe& probe : probes) {
      ++out.verify_queries;
      try {
        const QueryResponse response = cluster->front_end().Next().Search(
            probe.query, QueryOptions{.k = 10, .nprobe = 0});
        if (response.degraded) ++*degraded;
        for (const RankedResult& r : response.results) {
          const auto content = cluster->image_store().Fetch(r.hit.image_url);
          if (!content || content->product_id != r.hit.product_id) {
            ++*wrong;
            continue;
          }
          const FeatureVector stored = cluster->embedder().Extract(*content);
          const float truth = SquaredL2(probe.feature, stored);
          // The serving kernels accumulate the same value in dot-product
          // form; a corrupt payload is off by whole units, not ulps.
          if (std::abs(r.hit.distance - truth) >
              0.01f * (1.0f + std::abs(truth))) {
            ++*wrong;
          }
        }
      } catch (const std::exception&) {
        ++out.probe_errors;
      }
    }
  };
  run_probes(&out.degraded_verify, &out.wrong_pairs);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    out.quarantined_lists += cluster->searcher(p, 0).tier_quarantined_lists();
  }

  // Control plane with quarantine repair: every sick replica is re-imaged
  // from its healthy sibling while the closed-loop load runs.
  ctrl::ControllerConfig cc;
  cc.detector.heartbeat_period_micros = 10'000;
  cc.detector.suspect_after_misses = 2;
  cc.detector.down_after_misses = 6;
  cc.recovery_poll_micros = 2'000;
  cc.snapshot_dir = snapshot_dir;
  cc.quarantine_repair_threshold = 1;
  cc.tiered_snapshots = true;
  cc.tiered_resident_budget = 0;
  ctrl::ClusterController controller(*cluster, cc);
  controller.Start();

  QueryWorkloadConfig qc;
  qc.num_threads = 16;
  qc.duration_micros = quick ? 1'500'000 : 4'000'000;
  qc.seed = seed;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult load = client.Run();
  out.load_qps = load.qps;
  out.load_errors = load.errors;
  out.load_hit_rate = load.subject_hit_rate;

  // Wait (bounded) until every corrupt replica has been re-imaged, no
  // quarantined list remains anywhere, and every replica is serving again.
  const Clock& clock = MonotonicClock::Instance();
  const Micros wait_deadline = clock.NowMicros() + 20'000'000;
  while (clock.NowMicros() < wait_deadline) {
    std::uint64_t quarantined = 0;
    bool all_up = true;
    for (std::size_t p = 0; p < kPartitions; ++p) {
      for (std::size_t r = 0; r < 2; ++r) {
        quarantined += cluster->searcher(p, r).tier_quarantined_lists();
        if (cluster->replica_states().Get(cluster->replica_slot(p, r)) !=
            ctrl::ReplicaState::kUp) {
          all_up = false;
        }
      }
    }
    if (quarantined == 0 && all_up &&
        controller.quarantine_repairs() + controller.recoveries() >=
            out.corrupted_replicas) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  out.repairs = controller.quarantine_repairs();
  out.recoveries = controller.recoveries();
  out.repair_mttr_ms = controller.MeanRecoveryMicros() / 1000.0;
  // Freeze the control plane before the clean-state pass so a detector
  // flap mid-probe can't re-mark a healthy replica and muddy the report.
  controller.Stop();

  // Post-repair: the same probes answer clean again.
  run_probes(&out.degraded_after, &out.wrong_pairs_after);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    for (std::size_t r = 0; r < 2; ++r) {
      out.quarantined_after +=
          cluster->searcher(p, r).tier_quarantined_lists();
      if (const TierScrubber* scrubber =
              cluster->searcher(p, r).tier_scrubber()) {
        out.scrub_lists += scrubber->lists_scrubbed();
        out.scrub_corrupt += scrubber->corrupt_found();
      }
    }
  }
  out.blender_degraded = SumDegraded(*cluster);
  cluster->Stop();
  return out;
}

DiskFaultResult RunDiskFaultSection(std::uint64_t seed, bool quick,
                                    const std::string& snapshot_dir) {
  std::printf("\nDisk faults: one payload bit flipped on disk in replica 0's "
              "tiered file,\nevery partition; scrub + checksum-at-fault-in "
              "quarantine, then control-plane\nre-image from the healthy "
              "sibling (seed %llu):\n\n",
              (unsigned long long)seed);
  const DiskFaultResult r = RunDiskFaults(seed, quick, snapshot_dir);
  std::printf("  corrupted replicas:   %zu of %zu (1 bit each)\n",
              r.corrupted_replicas, (std::size_t)kPartitions * 2);
  std::printf("  degraded window:      %llu probes, %llu failed, %llu "
              "degraded, %llu wrong pairs\n",
              (unsigned long long)(r.verify_queries / 2),
              (unsigned long long)r.probe_errors,
              (unsigned long long)r.degraded_verify,
              (unsigned long long)r.wrong_pairs);
  std::printf("  quarantined lists:    %llu (scrub checked %llu, flagged "
              "%llu corrupt)\n",
              (unsigned long long)r.quarantined_lists,
              (unsigned long long)r.scrub_lists,
              (unsigned long long)r.scrub_corrupt);
  std::printf("  load during repair:   %.0f QPS, %llu errors, hit rate "
              "%.2f\n",
              r.load_qps, (unsigned long long)r.load_errors, r.load_hit_rate);
  std::printf("  quarantine repairs:   %llu replicas re-imaged (+%llu via "
              "detector recovery), MTTR %.1f ms\n",
              (unsigned long long)r.repairs,
              (unsigned long long)r.recoveries, r.repair_mttr_ms);
  std::printf("  after repair:         %llu degraded, %llu wrong pairs, "
              "%llu lists still quarantined\n",
              (unsigned long long)r.degraded_after,
              (unsigned long long)r.wrong_pairs_after,
              (unsigned long long)r.quarantined_after);
  std::printf("\n(a corrupt payload list is quarantined the first time its "
              "checksum fails —\nat fault-in or by the scrubber — and "
              "skipped by every later probe: queries\ncomplete from the "
              "surviving lists and are marked degraded, never wrong and\n"
              "never crashed. The controller treats quarantine >= threshold "
              "as storage\nfailure and re-images the replica from its "
              "healthy sibling's bytes.)\n");
  return r;
}

Json DiskFaultJson(const DiskFaultResult& r) {
  Json j = Json::Object();
  j.Set("corrupted_replicas", r.corrupted_replicas);
  j.Set("verify_queries", r.verify_queries);
  j.Set("probe_errors", r.probe_errors);
  j.Set("degraded_verify", r.degraded_verify);
  j.Set("wrong_pairs", r.wrong_pairs);
  j.Set("quarantined_lists", r.quarantined_lists);
  j.Set("scrub_lists", r.scrub_lists);
  j.Set("scrub_corrupt", r.scrub_corrupt);
  j.Set("load_qps", r.load_qps);
  j.Set("load_errors", r.load_errors);
  j.Set("load_hit_rate", r.load_hit_rate);
  j.Set("quarantine_repairs", r.repairs);
  j.Set("detector_recoveries", r.recoveries);
  j.Set("repair_mttr_ms", r.repair_mttr_ms);
  j.Set("degraded_after", r.degraded_after);
  j.Set("wrong_pairs_after", r.wrong_pairs_after);
  j.Set("quarantined_after", r.quarantined_after);
  j.Set("blender_degraded", r.blender_degraded);
  return j;
}

Json LimpingJson(const LimpingRow& row) {
  Json j = Json::Object();
  j.Set("label", std::string(row.label));
  j.Set("qps", row.qps);
  j.Set("p50_ms", row.p50_ms);
  j.Set("p99_ms", row.p99_ms);
  j.Set("errors", row.errors);
  j.Set("hedges", row.hedges);
  j.Set("hedge_wins", row.hedge_wins);
  j.Set("rpc_timeouts", row.rpc_timeouts);
  j.Set("latency_ejections", row.ejections);
  return j;
}

Json LossyJson(const LossyRow& row) {
  Json j = Json::Object();
  j.Set("label", std::string(row.label));
  j.Set("offered", row.offered);
  j.Set("completed", row.completed);
  j.Set("success_rate", row.success_rate);
  j.Set("timeout_errors", row.timeout_errors);
  j.Set("timed_out_in_flight", row.hung);
  j.Set("degraded", row.degraded);
  j.Set("p99_ms", row.p99_ms);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  // Broker failover / recovery warnings are the expected condition here;
  // keep the report readable.
  SetLogLevel(LogLevel::kError);
  std::uint64_t seed = 2018;
  bool quick = false;
  bool disk_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.data() + 7, nullptr, 10);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--disk-only") {
      disk_only = true;
    }
  }
  PrintHeader("Chaos: availability with searcher replicas under failures",
              "'Each partition can have multiple copies for availability'");

  const std::filesystem::path snapshot_dir =
      std::filesystem::temp_directory_path() / "jdvs_chaos_snapshots";
  std::filesystem::create_directories(snapshot_dir);

  if (disk_only) {
    const DiskFaultResult disk =
        RunDiskFaultSection(seed, quick, snapshot_dir.string());
    if (WantJson(argc, argv)) {
      Json root = Json::Object();
      root.Set("bench", "chaos_availability");
      root.Set("seed", seed);
      root.Set("disk_fault", DiskFaultJson(disk));
      WriteBenchJson("chaos_availability", root);
    }
    std::filesystem::remove_all(snapshot_dir);
    const bool ok = disk.probe_errors == 0 && disk.wrong_pairs == 0 &&
                    disk.wrong_pairs_after == 0 && disk.load_errors == 0 &&
                    disk.quarantined_after == 0 && disk.repairs >= 1;
    if (!ok) std::printf("\nDISK-FAULT INVARIANT VIOLATED\n");
    return ok ? 0 : 1;
  }

  std::printf("8 partitions, chaos thread killing primary searchers, 16 "
              "client threads for 6s per row:\n\n");
  std::printf("%10s %6s %8s %9s %7s %10s %9s %9s %11s %9s\n", "replicas",
              "ctrl", "QPS", "hit rate", "errors", "failovers", "partial",
              "degraded", "recoveries", "MTTR ms");
  struct Row {
    std::size_t replicas;
    bool control_plane;
  };
  Json chaos_rows = Json::Array();
  for (const Row row : {Row{1, false}, Row{2, false}, Row{2, true}}) {
    const ChaosResult result =
        Run(row.replicas, row.control_plane, snapshot_dir.string());
    std::printf("%10zu %6s %8.0f %9.2f %7llu %10llu %9llu %9llu %11llu "
                "%9.1f\n",
                row.replicas, row.control_plane ? "on" : "off", result.qps,
                result.hit_rate, (unsigned long long)result.errors,
                (unsigned long long)result.failovers,
                (unsigned long long)result.partition_failures,
                (unsigned long long)result.degraded,
                (unsigned long long)result.recoveries, result.mttr_ms);
    Json json_row = Json::Object();
    json_row.Set("replicas", row.replicas);
    json_row.Set("control_plane", row.control_plane);
    json_row.Set("qps", result.qps);
    json_row.Set("hit_rate", result.hit_rate);
    json_row.Set("errors", result.errors);
    json_row.Set("failovers", result.failovers);
    json_row.Set("partition_failures", result.partition_failures);
    json_row.Set("degraded", result.degraded);
    json_row.Set("recoveries", result.recoveries);
    json_row.Set("mttr_ms", result.mttr_ms);
    chaos_rows.Push(std::move(json_row));
  }
  std::printf("\n(replicas=1: every query issued while a searcher is down "
              "loses that partition's candidates — 'partial' counts those "
              "and 'degraded' the queries that answered from reduced "
              "coverage. replicas=2: the broker fails over and coverage "
              "holds. With the control plane, crashed searchers — index and "
              "catch-up state wiped, never revived by hand — come back "
              "automatically: heartbeat detection, snapshot restore, day-log "
              "catch-up, re-admission; MTTR is the mean DOWN-to-UP time.)\n");

  // ---- Gray failures the heartbeat detector cannot see ----
  const Micros gray_window = quick ? 1'500'000 : 5'000'000;
  std::printf("\nGray failure: replica 0 of every partition limping at 50x "
              "hop latency,\nheartbeats healthy (closed loop, %llu ms per "
              "row, seed %llu):\n\n",
              (unsigned long long)(gray_window / 1000),
              (unsigned long long)seed);
  std::printf("%12s %8s %9s %9s %7s %8s %10s %9s %10s\n", "mode", "QPS",
              "p50 ms", "p99 ms", "errors", "hedges", "hedge wins",
              "timeouts", "ejections");
  LimpingRow limping_rows[3];
  limping_rows[0] = RunLimping("fault-free", seed, gray_window,
                               /*inject=*/false, /*defended=*/false);
  limping_rows[1] = RunLimping("undefended", seed, gray_window,
                               /*inject=*/true, /*defended=*/false);
  limping_rows[2] = RunLimping("defended", seed, gray_window,
                               /*inject=*/true, /*defended=*/true);
  for (const LimpingRow& row : limping_rows) {
    std::printf("%12s %8.0f %9.2f %9.2f %7llu %8llu %10llu %9llu %10llu\n",
                row.label, row.qps, row.p50_ms, row.p99_ms,
                (unsigned long long)row.errors,
                (unsigned long long)row.hedges,
                (unsigned long long)row.hedge_wins,
                (unsigned long long)row.rpc_timeouts,
                (unsigned long long)row.ejections);
  }
  std::printf("\n(defended = latency-aware replica selection + adaptive "
              "hedging + per-RPC timeouts + latency-outlier ejection; the "
              "broker's latency EWMA routes primaries around the limper, a "
              "hedge covers the exploration traffic that still samples it, "
              "and the control plane marks the limpers SUSPECT even though "
              "their heartbeats stay healthy.)\n");

  const double lossy_qps = quick ? 150.0 : 300.0;
  std::printf("\nGray failure: every searcher link dropping 2%% of requests "
              "+ 1%% of replies\n(open loop at %.0f QPS, %llu ms window, 3 s "
              "drain):\n\n",
              lossy_qps, (unsigned long long)(gray_window / 1000));
  std::printf("%12s %8s %10s %9s %9s %6s %9s %9s\n", "mode", "offered",
              "completed", "success", "timeouts", "hung", "degraded",
              "p99 ms");
  LossyRow lossy_rows[3];
  lossy_rows[0] = RunLossy("fault-free", seed, gray_window, lossy_qps,
                           /*inject=*/false, /*defended=*/false);
  lossy_rows[1] = RunLossy("undefended", seed, gray_window, lossy_qps,
                           /*inject=*/true, /*defended=*/false);
  lossy_rows[2] = RunLossy("defended", seed, gray_window, lossy_qps,
                           /*inject=*/true, /*defended=*/true);
  for (const LossyRow& row : lossy_rows) {
    std::printf("%12s %8llu %10llu %8.1f%% %9llu %6llu %9llu %9.2f\n",
                row.label, (unsigned long long)row.offered,
                (unsigned long long)row.completed, row.success_rate * 100.0,
                (unsigned long long)row.timeout_errors,
                (unsigned long long)row.hung,
                (unsigned long long)row.degraded, row.p99_ms);
  }
  std::printf("\n(undefended, a silently dropped message hangs its query "
              "forever — 'hung' counts arrivals that never answered. "
              "Defended, the per-RPC timeout turns the drop into a typed "
              "error and the slot fails over to the sibling replica.)\n");

  const DiskFaultResult disk =
      RunDiskFaultSection(seed, quick, snapshot_dir.string());

  const RollingDeployResult rollout =
      RunRollingDeployment(snapshot_dir.string());
  if (WantJson(argc, argv)) {
    Json root = Json::Object();
    root.Set("bench", "chaos_availability");
    root.Set("seed", seed);
    root.Set("rows", std::move(chaos_rows));
    Json limping_json = Json::Array();
    for (const LimpingRow& row : limping_rows) {
      limping_json.Push(LimpingJson(row));
    }
    Json lossy_json = Json::Array();
    for (const LossyRow& row : lossy_rows) lossy_json.Push(LossyJson(row));
    Json gray = Json::Object();
    gray.Set("limping_replica", std::move(limping_json));
    gray.Set("lossy_network", std::move(lossy_json));
    root.Set("gray_failure", std::move(gray));
    root.Set("disk_fault", DiskFaultJson(disk));
    Json rollout_json = Json::Object();
    rollout_json.Set("qps", rollout.qps);
    rollout_json.Set("errors", rollout.errors);
    rollout_json.Set("replicas_updated", rollout.replicas_updated);
    rollout_json.Set("replicas_skipped", rollout.replicas_skipped);
    rollout_json.Set("partitions", rollout.partitions);
    rollout_json.Set("elapsed_seconds", rollout.elapsed_seconds);
    rollout_json.Set("catchup_replayed", rollout.catchup_replayed);
    rollout_json.Set("invariant_waits", rollout.invariant_waits);
    rollout_json.Set("partial_during", rollout.partial_during);
    root.Set("rolling_deployment", std::move(rollout_json));
    WriteBenchJson("chaos_availability", root);
  }
  std::filesystem::remove_all(snapshot_dir);
  return 0;
}
