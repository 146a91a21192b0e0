#include "search/cluster_builder.h"

#include <algorithm>
#include <sstream>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace jdvs {

VisualSearchCluster::VisualSearchCluster(const ClusterConfig& config)
    : config_(config),
      owned_registry_(config.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      owned_trace_sink_(config.trace_sink == nullptr
                            ? std::make_unique<obs::TraceSink>()
                            : nullptr),
      registry_(config.registry != nullptr ? config.registry
                                           : owned_registry_.get()),
      trace_sink_(config.trace_sink != nullptr ? config.trace_sink
                                               : owned_trace_sink_.get()),
      tracer_(std::make_unique<obs::Tracer>(
          trace_sink_,
          obs::TracerConfig{.sample_every = config.trace_sample_every,
                            .seed = config.seed})),
      slow_log_(std::make_unique<obs::SlowQueryLog>(
          obs::SlowLogConfig{
              .threshold_micros = config.slow_query_threshold_micros,
              .capacity = config.slow_log_capacity},
          trace_sink_)),
      embedder_(config.embedder),
      detector_(config.detector),
      image_store_(config.image_store),
      features_(embedder_, config.extraction, /*num_shards=*/64,
                config.kv_lookup_micros),
      partitioner_(config.num_partitions),
      topic_(/*per_subscription_capacity=*/65536, registry_) {
  // Searchers: one per (partition, replica). Each registers in the replica
  // state table in flat construction order, so slot == flat index.
  replica_states_ = std::make_unique<ctrl::ReplicaStateTable>(registry_);
  const std::size_t replicas = std::max<std::size_t>(
      config_.replicas_per_partition, 1);
  config_.replicas_per_partition = replicas;
  for (std::size_t p = 0; p < config_.num_partitions; ++p) {
    partition_topics_.push_back("product-updates-p" + std::to_string(p));
    for (std::size_t r = 0; r < replicas; ++r) {
      Searcher::Config sc;
      sc.threads = config_.searcher_threads;
      sc.latency = config_.searcher_latency.value_or(config_.hop_latency);
      sc.seed = config_.seed + p * 131 + r;
      sc.registry = registry_;
      sc.trace_sink = trace_sink_;
      sc.fault_injector = config_.fault_injector;
      searchers_.push_back(std::make_unique<Searcher>(
          "searcher-p" + std::to_string(p) + "-r" + std::to_string(r), sc,
          features_, partitioner_.FilterFor(p)));
      replica_states_->Register(searchers_.back()->name());
    }
  }
  // Drain waiters park on drain_cv_ and consumers notify per applied
  // message; the empty lock_guard orders the notify after a waiter's
  // predicate check, so no wakeup is ever missed (messages_consumed_ is
  // bumped before this listener runs). Counts of unrouted messages move
  // under drain_mu_ inside PublishUpdate and need no notify.
  for (const auto& searcher : searchers_) {
    searcher->SetProgressListener([this] {
      { std::lock_guard lock(drain_mu_); }
      drain_cv_.notify_all();
    });
  }

  // Performance-diagnosis layer: always-on flight recorder (every query,
  // sampled or not) + critical-path aggregator over sampled span trees.
  if (config_.enable_flight_recorder) {
    obs::FlightRecorder::Config frc;
    frc.stripes = std::max<std::size_t>(config_.flight_recorder_stripes, 1);
    frc.capacity_per_stripe = std::max<std::size_t>(
        config_.flight_recorder_capacity / frc.stripes, 1);
    frc.slo_micros = config_.flight_slo_micros > 0
                         ? config_.flight_slo_micros
                         : config_.slow_query_threshold_micros;
    flight_recorder_ = std::make_unique<obs::FlightRecorder>(
        frc, MonotonicClock::Instance(), registry_);
  }
  if (config_.trace_sample_every > 0) {
    critical_paths_ =
        std::make_unique<obs::CriticalPathAggregator>(trace_sink_, registry_);
  }

  // Shared degradation controller (only when a trigger is configured, so
  // pre-QoS clusters pay nothing on the query path).
  if (config_.load_control.p99_degrade_micros > 0 ||
      config_.load_control.queue_degrade_depth > 0) {
    load_controller_ = std::make_unique<qos::LoadController>(
        config_.load_control, MonotonicClock::Instance(), registry_);
    if (flight_recorder_ != nullptr) {
      // A degradation step-up is an anomaly worth the queries around it:
      // freeze the ring so the overload's onset is inspectable after the
      // fact. The recorder only takes its own locks, so calling it from
      // under the controller's rotation mutex is safe.
      obs::FlightRecorder* recorder = flight_recorder_.get();
      load_controller_->SetStepUpListener([recorder](int level) {
        recorder->DumpOnAnomaly("qos degradation stepped up to level " +
                                std::to_string(level));
      });
    }
  }

  // Brokers: contiguous partition ranges ("each broker asks a subset of
  // searchers").
  const std::size_t num_brokers =
      std::max<std::size_t>(std::min(config_.num_brokers,
                                     config_.num_partitions), 1);
  config_.num_brokers = num_brokers;
  for (std::size_t b = 0; b < num_brokers; ++b) {
    Broker::Config bc;
    bc.threads = config_.broker_threads;
    bc.latency = config_.hop_latency;
    bc.seed = config_.seed ^ (0xB0B0ULL + b);
    bc.registry = registry_;
    bc.trace_sink = trace_sink_;
    bc.rpc_timeout_micros = config_.searcher_rpc_timeout_micros;
    bc.enable_hedging = config_.enable_hedging;
    bc.hedge_delay_micros = config_.hedge_delay_micros;
    bc.hedge_delay_multiplier = config_.hedge_delay_multiplier;
    bc.hedge_delay_min_micros = config_.hedge_delay_min_micros;
    bc.hedge_rate_cap = config_.hedge_rate_cap;
    bc.latency_aware_selection = config_.latency_aware_selection;
    brokers_.push_back(
        std::make_unique<Broker>("broker-" + std::to_string(b), bc));
  }
  for (const auto& b : brokers_) b->SetReplicaStates(replica_states_.get());
  for (std::size_t p = 0; p < config_.num_partitions; ++p) {
    std::vector<Searcher*> partition_replicas;
    std::vector<std::size_t> state_slots;
    for (std::size_t r = 0; r < replicas; ++r) {
      partition_replicas.push_back(
          searchers_[p * replicas + r].get());
      state_slots.push_back(replica_slot(p, r));
    }
    brokers_[p % num_brokers]->AddPartition(std::move(partition_replicas),
                                            std::move(state_slots));
  }

  // Blenders: each connected to every broker.
  std::vector<Broker*> all_brokers;
  for (const auto& b : brokers_) all_brokers.push_back(b.get());
  for (std::size_t i = 0; i < std::max<std::size_t>(config_.num_blenders, 1);
       ++i) {
    Blender::Config lc;
    lc.threads = config_.blender_threads;
    lc.latency = config_.hop_latency;
    lc.seed = config_.seed ^ (0x1E4D ^ i);
    lc.query_extraction_micros = config_.query_extraction_micros;
    lc.ranking = config_.ranking;
    lc.default_k = config_.default_k;
    lc.nprobe = 0;
    lc.max_in_flight = config_.blender_max_in_flight;
    lc.max_background_in_flight = config_.blender_max_background_in_flight;
    lc.admission_tokens_per_sec = config_.blender_admission_tokens_per_sec;
    lc.default_budget_micros = config_.default_query_budget_micros;
    lc.load_controller = load_controller_.get();
    lc.degraded_nprobe =
        config_.degraded_nprobe > 0
            ? config_.degraded_nprobe
            : std::max<std::size_t>(config_.ivf.nprobe / 4, 1);
    lc.broker_rpc_timeout_micros = config_.broker_rpc_timeout_micros;
    lc.enable_result_cache = config_.blender_result_cache;
    lc.cache = config_.blender_cache;
    lc.index_version = &updates_published_;
    lc.registry = registry_;
    lc.tracer = tracer_.get();
    lc.slow_log = slow_log_.get();
    lc.flight_recorder = flight_recorder_.get();
    lc.critical_paths = critical_paths_.get();
    blenders_.push_back(std::make_unique<Blender>(
        "blender-" + std::to_string(i), lc, embedder_, detector_,
        all_brokers));
  }

  std::vector<Blender*> blender_ptrs;
  for (const auto& b : blenders_) blender_ptrs.push_back(b.get());
  front_end_ = std::make_unique<RoundRobinBalancer<Blender>>(
      std::move(blender_ptrs),
      [](const Blender& b) { return b.healthy(); });

  // Chaos fabric: one injector governs every tier's links, so a harness can
  // fault blender->broker, broker->searcher and ctrl->searcher edges
  // independently (decisions are keyed on (source, destination) names).
  if (config_.fault_injector != nullptr) {
    for (const auto& s : searchers_) {
      s->node().set_fault_injector(config_.fault_injector);
    }
    for (const auto& b : brokers_) {
      b->node().set_fault_injector(config_.fault_injector);
    }
    for (const auto& b : blenders_) {
      b->node().set_fault_injector(config_.fault_injector);
    }
  }

  // Per-tier pool queue-wait histograms: how long submitted work sat in a
  // node pool's queue before a worker picked it up — the saturation signal
  // the depth gauges only show as a point sample.
  auto attach_queue_wait = [this](Node& node, const char* tier) {
    node.pool().set_queue_wait_histogram(&registry_->GetHistogram(
        obs::Labeled("jdvs_pool_queue_wait_micros", "tier", tier)));
  };
  for (const auto& b : blenders_) attach_queue_wait(b->node(), "blender");
  for (const auto& b : brokers_) attach_queue_wait(b->node(), "broker");
  for (const auto& s : searchers_) attach_queue_wait(s->node(), "searcher");

  // Introspection pages. Cluster state reaches statusz through sections, so
  // obs keeps no dependency on search/ctrl/qos.
  introspection_ = std::make_unique<obs::Introspection>();
  introspection_->SetRegistry(registry_);
  introspection_->SetTraceSink(trace_sink_);
  introspection_->SetSlowLog(slow_log_.get());
  introspection_->SetFlightRecorder(flight_recorder_.get());
  introspection_->AddStatusSection(
      "cluster", [this](std::ostream& os) { os << StatusReport(); });
  introspection_->AddStatusSection("admission", [this](std::ostream& os) {
    for (const auto& b : blenders_) {
      const qos::AdmissionController& a = b->admission();
      os << b->name() << ": in_flight=" << a.total_in_flight()
         << " admitted=" << a.admitted(qos::Priority::kInteractive) << "/"
         << a.admitted(qos::Priority::kBackground)
         << " shed=" << a.shed(qos::Priority::kInteractive) << "/"
         << a.shed(qos::Priority::kBackground)
         << " (interactive/background)\n";
    }
  });
  introspection_->AddStatusSection("tier", [this](std::ostream& os) {
    // Tiered (mmap-served) partitions only; RAM-resident searchers render
    // nothing, so the section stays empty on a fully resident cluster.
    for (const auto& s : searchers_) s->RenderTierStatus(os);
  });
  introspection_->AddStatusSection("pools", [this](std::ostream& os) {
    auto row = [&os](Node& node) {
      const ThreadPool& pool = node.pool();
      os << node.name() << ": busy=" << pool.busy_threads() << "/"
         << pool.num_threads() << " (peak " << pool.peak_busy_threads()
         << ") queue=" << pool.queue_depth() << " (peak "
         << pool.peak_queue_depth() << ")\n";
    };
    for (const auto& b : blenders_) row(b->node());
    for (const auto& b : brokers_) row(b->node());
  });
}

VisualSearchCluster::~VisualSearchCluster() { Stop(); }

void VisualSearchCluster::BuildAndInstall(
    std::shared_ptr<const CoarseQuantizer> quantizer) {
  // Builds run in parallel across searchers; every substrate they touch
  // (catalog, image store, feature DB) is thread-safe, and each build only
  // writes its own fresh IvfIndex.
  //
  // The install resets each searcher's high-water mark to the day log's
  // last sequence at build start: the catalog already holds everything
  // published up to that point, so the built index covers it. Updates
  // racing the build get re-applied on top — applies are idempotent
  // (absolute attribute values, add = revalidate).
  const std::uint64_t hwm = day_log_.last_sequence();
  ThreadPool builders(std::max<std::size_t>(config_.build_threads, 1),
                      "index-build");
  std::vector<std::future<void>> done;
  done.reserve(searchers_.size());
  for (const auto& searcher_ptr : searchers_) {
    Searcher* searcher = searcher_ptr.get();
    done.push_back(builders.SubmitWithResult([this, searcher, quantizer,
                                              hwm] {
      FullIndexReport report;
      auto index = FullBuilder().Build(quantizer,
                                       searcher->partition_filter(), &report);
      searcher->InstallIndex(std::move(index), hwm);
      JDVS_LOG(kInfo) << searcher->name() << ": installed full index with "
                      << report.images_indexed << " images ("
                      << report.features_reused << " reused, "
                      << report.features_extracted << " extracted)";
    }));
  }
  for (auto& f : done) f.get();
}

void VisualSearchCluster::BuildAndInstallFullIndexes() {
  BuildAndInstall(TrainQuantizer());
}

void VisualSearchCluster::Start() {
  if (started_) return;
  started_ = true;
  if (!config_.realtime_enabled) return;
  for (std::size_t p = 0; p < config_.num_partitions; ++p) {
    for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
      searcher(p, r).StartConsuming(SubscribeUpdates(p));
    }
  }
}

void VisualSearchCluster::Stop() {
  if (!started_) return;
  topic_.CloseAll();
  for (const auto& searcher : searchers_) searcher->StopConsuming();
  started_ = false;
}

QueryResponse VisualSearchCluster::Query(const QueryImage& query) {
  return Query(query, QueryOptions{.k = config_.default_k, .nprobe = 0});
}

QueryResponse VisualSearchCluster::Query(const QueryImage& query,
                                         const QueryOptions& options) {
  return front_end_->Next().Search(query, options);
}

void VisualSearchCluster::PublishUpdate(ProductUpdateMessage message) {
  // Real-time traces: the publish is the root span; each searcher's apply
  // becomes an "rt.apply" child via the context carried in the message.
  obs::Span span = tracer_->StartTrace("update");
  if (span.sampled()) {
    span.AddTag("type", UpdateTypeName(message.type));
    span.AddTag("product", static_cast<std::uint64_t>(message.product_id));
    message.trace_id = span.context().trace_id;
    message.parent_span_id = span.context().span_id;
  }
  const std::lock_guard publish_lock(publish_mu_);
  const std::vector<std::string> product_urls =
      ApplyToCatalog(message, catalog_, image_store_);
  // The day log assigns the sequence; stamp it onto the published copy so
  // searchers track their high-water mark against the log.
  message.sequence = day_log_.Append(message);
  if (!realtime_running()) {
    updates_published_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Route: a partition receives the message when it holds, or is about to
  // hold, an image of the product. The record's URLs after the catalog apply
  // cover the images any partition can hold (an addition's included); the
  // message's own URLs cover any other image it names.
  std::vector<char> routed(config_.num_partitions, 0);
  for (const std::vector<std::string>* urls :
       {&product_urls, &std::as_const(message.image_urls)}) {
    for (const std::string& url : *urls) {
      routed[partitioner_.PartitionOf(url)] = 1;
    }
  }
  std::size_t num_routed = std::count(routed.begin(), routed.end(), 1);
  {
    // A searcher of an unrouted partition has nothing to apply, so it counts
    // the message now. The published count moves under the same lock, so a
    // drain check never sees one without the other.
    std::lock_guard lock(drain_mu_);
    updates_published_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t p = 0; p < config_.num_partitions; ++p) {
      if (routed[p] != 0) continue;
      for (std::size_t r = 0; r < config_.replicas_per_partition; ++r) {
        searcher(p, r).CountUnrouted();
      }
    }
  }
  for (std::size_t p = 0; p < config_.num_partitions && num_routed > 0; ++p) {
    if (routed[p] == 0) continue;
    // The last topic takes the message by move.
    topic_.Publish(partition_topics_[p],
                   --num_routed == 0 ? std::move(message) : message);
  }
}

std::shared_ptr<Subscription> VisualSearchCluster::SubscribeUpdates(
    std::size_t partition) {
  return topic_.Subscribe(partition_topics_.at(partition));
}

FullIndexBuilder VisualSearchCluster::FullBuilder() {
  return FullIndexBuilder(catalog_, image_store_, features_,
                          FullIndexBuilderConfig{
                              .index_config = config_.ivf,
                              .training_sample = config_.training_sample,
                              .kmeans = config_.kmeans,
                              .seed = config_.seed,
                          });
}

std::shared_ptr<const CoarseQuantizer> VisualSearchCluster::TrainQuantizer() {
  quantizer_ = FullBuilder().TrainQuantizer();
  return quantizer_;
}

std::unique_ptr<IvfIndex> VisualSearchCluster::BuildPartitionIndex(
    std::size_t partition, FullIndexReport* report) {
  if (!quantizer_) TrainQuantizer();
  return FullBuilder().Build(quantizer_, partitioner_.FilterFor(partition),
                             report);
}

void VisualSearchCluster::RunFullIndexingCycle() {
  // The day log was already applied to the catalog on publish; replaying it
  // is idempotent and mirrors the paper's pipeline, after which the log is
  // truncated for the next day.
  FullBuilder().ApplyMessageLog(day_log_);
  BuildAndInstall(TrainQuantizer());
}

bool VisualSearchCluster::WaitForUpdatesDrained(Micros timeout_micros) {
  if (!config_.realtime_enabled || !started_) return true;
  // Event-driven: consumers notify drain_cv_ per message (see the progress
  // listeners wired in the constructor), so the waiter parks instead of
  // burning a 1ms poll loop — and wakes the moment the last message lands.
  // The target is read under drain_mu_, where it moves together with the
  // publish-time counts: against a target read earlier, a later message's
  // publish-time count could stand in for a routed one still in flight.
  std::unique_lock lock(drain_mu_);
  return drain_cv_.wait_for(
      lock, std::chrono::microseconds(timeout_micros), [&] {
        const std::uint64_t published =
            updates_published_.load(std::memory_order_relaxed);
        for (const auto& searcher : searchers_) {
          if (searcher->messages_consumed() < published) return false;
        }
        return true;
      });
}

RealTimeIndexerCounters VisualSearchCluster::TotalUpdateCounters() const {
  RealTimeIndexerCounters total;
  for (const auto& searcher : searchers_) {
    total.Add(searcher->update_counters());
  }
  return total;
}

void VisualSearchCluster::MergeUpdateLatencyInto(Histogram& out) const {
  for (const auto& searcher : searchers_) {
    searcher->MergeUpdateLatencyInto(out);
  }
}

std::string VisualSearchCluster::StatusReport() const {
  std::ostringstream os;
  os << "VisualSearchCluster: " << config_.num_partitions << " partitions x "
     << config_.replicas_per_partition << " replicas, "
     << brokers_.size() << " brokers, " << blenders_.size() << " blenders, "
     << "realtime=" << (config_.realtime_enabled ? "on" : "off") << "\n";

  const IvfIndexStats index = AggregateIndexStats();
  os << "index: " << index.total_images << " images (" << index.valid_images
     << " valid), " << index.num_lists << " inverted lists, "
     << index.list_expansions << " expansions, largest list "
     << index.largest_list << "\n";

  const RealTimeIndexerCounters updates = TotalUpdateCounters();
  os << "updates: " << updates_published_ << " published, "
     << updates.TotalMessages() << " partition applies ("
     << updates.attribute_updates << " update / " << updates.additions
     << " add / " << updates.deletions << " delete), " << updates.images_added
     << " images added, " << updates.images_revalidated << " revalidated, "
     << updates.features_extracted << " extracted\n";

  os << "day log: " << day_log_.size() << " buffered messages; feature DB: "
     << features_.size() << " features\n";

  for (std::size_t b = 0; b < brokers_.size(); ++b) {
    os << "  " << brokers_[b]->name() << ": "
       << brokers_[b]->num_partitions() << " partitions, "
       << brokers_[b]->failovers() << " failovers, "
       << brokers_[b]->partition_failures() << " partition failures\n";
  }
  for (std::size_t i = 0; i < blenders_.size(); ++i) {
    os << "  " << blenders_[i]->name() << ": "
       << blenders_[i]->queries_served() << " queries, "
       << blenders_[i]->queries_shed() << " shed, "
       << (blenders_[i]->healthy() ? "healthy" : "FAILED") << "\n";
  }
  std::size_t down = 0;
  for (const auto& searcher : searchers_) {
    if (searcher->node().failed()) ++down;
  }
  os << "  searchers: " << searchers_.size() - down << "/"
     << searchers_.size() << " healthy\n";
  const ctrl::ReplicaStateCounts states = replica_states_->Counts();
  os << "  replica states: " << states.up << " up / " << states.suspect
     << " suspect / " << states.down << " down / " << states.recovering
     << " recovering\n";
  if (load_controller_) {
    os << "  qos: degradation level " << load_controller_->level() << " ("
       << load_controller_->steps_up() << " steps up, "
       << load_controller_->steps_down() << " down)\n";
  }
  return os.str();
}

void VisualSearchCluster::SamplePoolGauges() {
  auto sample = [this](Node& node) {
    const ThreadPool& pool = node.pool();
    registry_
        ->GetGauge(obs::Labeled("jdvs_pool_busy_threads", "node", node.name()))
        .Set(static_cast<std::int64_t>(pool.busy_threads()));
    registry_
        ->GetGauge(
            obs::Labeled("jdvs_pool_busy_threads_peak", "node", node.name()))
        .Set(static_cast<std::int64_t>(pool.peak_busy_threads()));
    registry_
        ->GetGauge(obs::Labeled("jdvs_pool_queue_depth", "node", node.name()))
        .Set(static_cast<std::int64_t>(pool.queue_depth()));
    registry_
        ->GetGauge(
            obs::Labeled("jdvs_pool_queue_depth_peak", "node", node.name()))
        .Set(static_cast<std::int64_t>(pool.peak_queue_depth()));
  };
  for (const auto& blender : blenders_) sample(blender->node());
  for (const auto& broker : brokers_) sample(broker->node());
  for (const auto& searcher : searchers_) sample(searcher->node());
}

IvfIndexStats VisualSearchCluster::AggregateIndexStats() const {
  IvfIndexStats total;
  for (const auto& searcher : searchers_) {
    const IvfIndexStats s = searcher->index_stats();
    total.total_images += s.total_images;
    total.valid_images += s.valid_images;
    total.num_lists += s.num_lists;
    total.largest_list = std::max(total.largest_list, s.largest_list);
    total.list_expansions += s.list_expansions;
    total.buffer_bytes += s.buffer_bytes;
    total.code_memory_bytes += s.code_memory_bytes;
  }
  return total;
}

}  // namespace jdvs
