// VisualSearchCluster: the whole Figure 1 system wired together.
//
// Owns the data substrates (catalog, image store, feature DB, embedder), the
// indexing pipelines (daily message log + real-time topic queue with one
// topic per partition + weekly full indexing), and the 3-level search
// topology (load balancer -> blenders -> brokers -> searchers with
// replicated partitions). The paper's testbed — 1 Nginx front end, 6
// blender/broker servers, 20 searchers — is the default topology.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/quantizer.h"
#include "ctrl/replica_state.h"
#include "embedding/category_detector.h"
#include "embedding/extractor.h"
#include "index/full_index_builder.h"
#include "mq/message_log.h"
#include "mq/topic_queue.h"
#include "net/fault_injector.h"
#include "net/load_balancer.h"
#include "net/partitioner.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/introspection.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "qos/load_controller.h"
#include "search/blender.h"
#include "search/broker.h"
#include "search/searcher.h"
#include "store/catalog.h"
#include "store/feature_db.h"
#include "store/image_store.h"

namespace jdvs {

struct ClusterConfig {
  // Topology (defaults mirror the paper's evaluation testbed).
  std::size_t num_partitions = 20;
  std::size_t replicas_per_partition = 1;
  std::size_t num_brokers = 3;
  std::size_t num_blenders = 3;
  std::size_t searcher_threads = 2;
  std::size_t broker_threads = 4;
  std::size_t blender_threads = 4;
  LatencyModel hop_latency;
  // Overrides hop_latency for searcher nodes only (e.g. slow bottom tier
  // under a thin broker tier, the shape the async pipeline must absorb).
  std::optional<LatencyModel> searcher_latency;

  // Data / model substrates.
  EmbedderConfig embedder;
  CategoryDetectorConfig detector;
  ExtractionCostModel extraction;             // indexing-side CNN cost
  std::int64_t query_extraction_micros = 0;   // query-side CNN cost
  std::int64_t kv_lookup_micros = 0;          // feature-DB round trip
  ImageStoreConfig image_store;

  // Index.
  IvfIndexConfig ivf;
  KMeansConfig kmeans;
  std::size_t training_sample = 2048;

  // Ranking / query defaults.
  RankingConfig ranking;
  std::size_t default_k = 10;
  // Per-blender admission limit (0 = unlimited).
  std::size_t blender_max_in_flight = 0;
  // QoS / overload control (src/qos; all defaults = pre-QoS behavior).
  // Extra per-blender cap on background-class queries (recovery catch-up,
  // probes); 0 = no extra cap.
  std::size_t blender_max_background_in_flight = 0;
  // Per-blender token bucket on admissions per second; 0 = off.
  double blender_admission_tokens_per_sec = 0.0;
  // Latency budget stamped on queries that don't carry their own
  // (QueryOptions::kNoBudget); 0 = unlimited.
  Micros default_query_budget_micros = 0;
  // Adaptive degradation thresholds; both triggers 0 = degradation off (no
  // controller is created). The controller is shared by every blender.
  qos::LoadControlConfig load_control;
  // nprobe served while degraded; 0 = max(1, ivf.nprobe / 4).
  std::size_t degraded_nprobe = 0;
  // Per-blender result cache (off by default: freshness first). The cache's
  // strict version check is wired to the cluster's update counter.
  bool blender_result_cache = false;
  QueryCacheConfig blender_cache;

  // ---- Gray-failure tolerance (src/net fault layer; defaults = off) ----
  // Fault injector attached to every tier's node (null = clean fabric).
  // Chaos harnesses own the injector and flip link faults at runtime.
  FaultInjector* fault_injector = nullptr;
  // Per-attempt broker->searcher RPC timeout; 0 = none. Required for
  // bounded-time queries on a lossy fabric: a dropped message becomes a
  // typed RpcTimeoutError the broker fails over on.
  Micros searcher_rpc_timeout_micros = 0;
  // Per-call blender->broker RPC timeout; 0 = none.
  Micros broker_rpc_timeout_micros = 0;
  // Hedged broker->searcher requests (tail-latency defense); knobs mirror
  // Broker::Config.
  bool enable_hedging = false;
  Micros hedge_delay_micros = 0;  // 0 = adaptive from replica EWMAs
  double hedge_delay_multiplier = 3.0;
  Micros hedge_delay_min_micros = 500;
  double hedge_rate_cap = 0.1;
  // Order replica candidates by (state, latency EWMA) instead of rotation.
  bool latency_aware_selection = false;

  // Real-time indexing on (the paper's system) or off (the Figure 12
  // baseline, where updates wait for the next full indexing cycle).
  bool realtime_enabled = true;

  // Parallelism of full index builds.
  std::size_t build_threads = 8;

  // Observability. Null registry/sink = cluster-private instances, so two
  // clusters in one process (e.g. the Figure 12 W/ vs W/O testbeds) don't
  // mix their metrics; pass explicit pointers to share or to use the
  // process-global obs::Registry::Default()/obs::TraceSink::Default().
  obs::Registry* registry = nullptr;
  obs::TraceSink* trace_sink = nullptr;
  // Trace 1-in-N queries and updates end to end; 0 = tracing off (default),
  // 1 = every query. Sampling is counter-based, hence deterministic.
  std::uint64_t trace_sample_every = 0;
  // Traced queries slower than this keep their full span tree in the slow
  // log (worst `slow_log_capacity` retained).
  Micros slow_query_threshold_micros = 500'000;
  std::size_t slow_log_capacity = 8;
  // Performance diagnosis: the always-on flight recorder files a stage
  // record for every query (sampled or not). Disable only to measure its
  // own overhead; the fault-free cost is one striped spinlock per query.
  bool enable_flight_recorder = true;
  std::size_t flight_recorder_stripes = 8;
  std::size_t flight_recorder_capacity = 4096;  // total ring, across stripes
  // SLO breach threshold for DumpOnAnomaly; 0 = use
  // slow_query_threshold_micros (the same "this query was too slow" line).
  Micros flight_slo_micros = 0;

  std::uint64_t seed = 2018;
};

class VisualSearchCluster {
 public:
  explicit VisualSearchCluster(const ClusterConfig& config);
  ~VisualSearchCluster();

  VisualSearchCluster(const VisualSearchCluster&) = delete;
  VisualSearchCluster& operator=(const VisualSearchCluster&) = delete;

  // ---- Substrate access (populate the catalog before building indexes) ----
  ProductCatalog& catalog() { return catalog_; }
  ImageStore& image_store() { return image_store_; }
  FeatureDb& features() { return features_; }
  const SyntheticEmbedder& embedder() const { return embedder_; }
  const UrlPartitioner& partitioner() const { return partitioner_; }
  const ClusterConfig& config() const { return config_; }
  MessageLog& day_log() { return day_log_; }

  // ---- Lifecycle ----

  // Trains the coarse quantizer and builds+installs one full index per
  // searcher (parallel across searchers).
  void BuildAndInstallFullIndexes();

  // Subscribes every searcher to its partition's update topic and starts
  // their consumer loops (no-op when realtime is disabled).
  void Start();

  // Closes every update topic and stops consumers. Idempotent; also run by
  // the destructor.
  void Stop();

  // ---- Runtime operations ----

  // User query through the front-end load balancer.
  QueryResponse Query(const QueryImage& query);
  QueryResponse Query(const QueryImage& query, const QueryOptions& options);

  // Product update: applied to the product catalog and image store, buffered
  // in the day log (Figure 2), and — when real-time indexing is running —
  // published to the update topics of the partitions that hold, or will
  // hold, an image of its product (Figure 4): those named by the catalog
  // record after the apply or by the message itself. Every replica of such
  // a partition receives it, in publish order. Every other searcher counts
  // it as consumed before this returns, since it has nothing to apply.
  // Thread-safe: publishes serialize from the catalog apply through the last
  // topic push, so every partition receives messages in sequence order.
  void PublishUpdate(ProductUpdateMessage message);

  // End-of-day / periodic full indexing (Figure 2-3): replays the day log,
  // retrains the quantizer, rebuilds every partition and hot-swaps the
  // indexes under live traffic. This is also how the W/O-real-time baseline
  // ever learns about updates.
  void RunFullIndexingCycle();

  // Blocks until every searcher's messages_consumed() reaches
  // updates_published(), i.e. every published message has been applied by
  // each replica of each partition it was routed to (or the timeout
  // elapses); returns true when drained.
  bool WaitForUpdatesDrained(Micros timeout_micros = 30'000'000);

  // ---- Control-plane hooks (used by ctrl::ClusterController) ----

  // Fresh subscription to `partition`'s update topic (what a recovering
  // searcher's consumer loop reads). Pre-closed when the topics were already
  // shut down.
  std::shared_ptr<Subscription> SubscribeUpdates(std::size_t partition);
  // True while the update topic is live (realtime on and Start() ran).
  bool realtime_running() const {
    return started_ && config_.realtime_enabled;
  }
  // (Re)trains the coarse quantizer from the current catalog and retains it
  // as the cluster quantizer.
  std::shared_ptr<const CoarseQuantizer> TrainQuantizer();
  // Builds one partition's full index against the retained quantizer (train
  // first). The caller owns distribution: snapshot it, install it, etc.
  std::unique_ptr<IvfIndex> BuildPartitionIndex(std::size_t partition,
                                                FullIndexReport* report =
                                                    nullptr);
  // Highest update sequence the day log has assigned (0 = none yet).
  std::uint64_t last_update_sequence() const {
    return day_log_.last_sequence();
  }
  // Replica health table: brokers read it on dispatch, the control plane
  // writes it.
  ctrl::ReplicaStateTable& replica_states() { return *replica_states_; }
  const ctrl::ReplicaStateTable& replica_states() const {
    return *replica_states_;
  }
  // State-table slot of (partition, replica) — searchers register in flat
  // construction order, so the slot is the flat searcher index.
  std::size_t replica_slot(std::size_t partition, std::size_t replica) const {
    return partition * config_.replicas_per_partition + replica;
  }

  // ---- Introspection ----
  std::size_t num_searchers() const { return searchers_.size(); }
  Searcher& searcher(std::size_t partition, std::size_t replica = 0) {
    return *searchers_[partition * config_.replicas_per_partition + replica];
  }
  Searcher& searcher_flat(std::size_t i) { return *searchers_[i]; }
  Broker& broker(std::size_t i) { return *brokers_[i]; }
  Blender& blender(std::size_t i) { return *blenders_[i]; }
  std::size_t num_brokers() const { return brokers_.size(); }
  std::size_t num_blenders() const { return blenders_.size(); }
  // The front-end balancer itself, for callers that retry on a different
  // blender (workload::QueryClient's overload retry).
  RoundRobinBalancer<Blender>& front_end() { return *front_end_; }
  // Shared degradation controller; null when degradation is off (no
  // load_control trigger configured).
  qos::LoadController* load_controller() { return load_controller_.get(); }

  std::uint64_t updates_published() const { return updates_published_; }

  // Aggregates across all searchers.
  RealTimeIndexerCounters TotalUpdateCounters() const;
  void MergeUpdateLatencyInto(Histogram& out) const;
  IvfIndexStats AggregateIndexStats() const;

  // ---- Observability ----
  // The cluster's metrics registry (every tier's instruments in one dump).
  obs::Registry& registry() { return *registry_; }
  const obs::Registry& registry() const { return *registry_; }
  // Finished spans of sampled traces; Render(trace_id) prints one query's
  // blender → broker → searcher tree.
  obs::TraceSink& trace_sink() { return *trace_sink_; }
  obs::Tracer& tracer() { return *tracer_; }
  obs::SlowQueryLog& slow_log() { return *slow_log_; }
  // Null when enable_flight_recorder is false.
  obs::FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  // Per-stage critical-path aggregator (null when tracing is off — with no
  // sampled span trees there is nothing to attribute).
  obs::CriticalPathAggregator* critical_paths() {
    return critical_paths_.get();
  }
  // statusz / tracez / metricz pages over this cluster's live state.
  obs::Introspection& introspection() { return *introspection_; }

  // Snapshots every node pool's saturation stats into the registry as
  // jdvs_pool_busy_threads{node=...} / jdvs_pool_queue_depth{node=...}
  // gauges (plus _peak variants). Call before dumping the registry.
  void SamplePoolGauges();

  // Human-readable operational summary of every tier (the ops dashboard in
  // text form): topology, per-tier health, index sizes, update counters.
  std::string StatusReport() const;

 private:
  void BuildAndInstall(std::shared_ptr<const CoarseQuantizer> quantizer);
  // Full-index builder over this cluster's substrate and build config.
  FullIndexBuilder FullBuilder();

  ClusterConfig config_;
  // Observability substrate first: the topic queue and every tier below
  // register instruments against it.
  std::unique_ptr<obs::Registry> owned_registry_;
  std::unique_ptr<obs::TraceSink> owned_trace_sink_;
  obs::Registry* registry_;
  obs::TraceSink* trace_sink_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  SyntheticEmbedder embedder_;
  CategoryDetector detector_;
  ProductCatalog catalog_;
  ImageStore image_store_;
  FeatureDb features_;
  UrlPartitioner partitioner_;
  MessageLog day_log_;
  TopicQueue topic_;
  std::vector<std::string> partition_topics_;  // topic name per partition

  std::shared_ptr<const CoarseQuantizer> quantizer_;

  // Destruction order matters: blenders call brokers call searchers, and
  // brokers read the replica state table, so searchers_ / the table are
  // declared first (destroyed last). The drain cv and load controller are
  // referenced from searcher/blender callbacks, so they outlive both tiers.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  // Serializes PublishUpdate: a searcher drops any message at or below its
  // applied sequence as a duplicate, so sequence n must reach each topic
  // before n + 1.
  std::mutex publish_mu_;
  // Diagnosis layer precedes the tiers for the same reason as the load
  // controller: blender completion callbacks write flight records and fold
  // critical paths during teardown, so the recorder/aggregator must outlive
  // the blenders (declared earlier = destroyed later).
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  std::unique_ptr<obs::CriticalPathAggregator> critical_paths_;
  std::unique_ptr<obs::Introspection> introspection_;
  std::unique_ptr<qos::LoadController> load_controller_;
  std::unique_ptr<ctrl::ReplicaStateTable> replica_states_;
  std::vector<std::unique_ptr<Searcher>> searchers_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::unique_ptr<Blender>> blenders_;
  std::unique_ptr<RoundRobinBalancer<Blender>> front_end_;

  std::atomic<std::uint64_t> updates_published_{0};
  bool started_ = false;
};

}  // namespace jdvs
