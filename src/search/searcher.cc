#include "search/searcher.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "index/snapshot.h"
#include "vecmath/kernels.h"

namespace jdvs {

Searcher::Searcher(std::string name, const Config& config, FeatureDb& features,
                   PartitionFilter filter)
    : node_(std::move(name), config.threads, config.latency, config.seed),
      features_(features),
      filter_(std::move(filter)),
      seed_(config.seed),
      registry_(config.registry != nullptr ? config.registry
                                           : &obs::Registry::Default()),
      trace_sink_(config.trace_sink != nullptr ? config.trace_sink
                                               : &obs::TraceSink::Default()),
      fault_injector_(config.fault_injector),
      scan_stage_(&registry_->GetHistogram(
          obs::Labeled("jdvs_stage_micros", "stage", "searcher_scan"))),
      filter_stage_(&registry_->GetHistogram(
          obs::Labeled("jdvs_stage_micros", "stage", "searcher_filter"))),
      io_stage_(&registry_->GetHistogram(
          obs::Labeled("jdvs_stage_micros", "stage", "searcher_io"))),
      filter_selectivity_bp_(
          &registry_->GetHistogram("jdvs_filter_selectivity_bp")),
      filter_pre_total_(&registry_->GetCounter(
          obs::Labeled("jdvs_filter_strategy_total", "strategy", "pre"))),
      filter_post_total_(&registry_->GetCounter(
          obs::Labeled("jdvs_filter_strategy_total", "strategy", "post"))),
      filter_blocks_skipped_(
          &registry_->GetCounter("jdvs_filter_blocks_skipped_total")),
      filter_widened_(
          &registry_->GetCounter("jdvs_filter_widened_nprobe_total")),
      consumed_total_(&registry_->GetCounter(obs::Labeled(
          "jdvs_searcher_messages_consumed_total", "searcher",
          node_.name()))),
      deduped_total_(&registry_->GetCounter(obs::Labeled(
          "jdvs_searcher_updates_deduped_total", "searcher",
          node_.name()))),
      deadline_exceeded_(&registry_->GetCounter(obs::Labeled(
          "jdvs_qos_deadline_exceeded_total", "tier", "searcher"))) {
  // Scan latency carries exemplars: a slow bucket links to the trace that
  // produced it (sampled queries only -- unsampled scans have no trace id).
  scan_stage_->EnableExemplars();
  // Which SIMD tier the distance kernels resolved to (process-wide; exported
  // here so every cluster's registry — and the statusz page — shows it).
  registry_->GetGauge("jdvs_kernel_dispatch_tier")
      .Set(static_cast<std::int64_t>(ActiveKernelTier()));
}

Searcher::~Searcher() {
  // The scrubber reads the index through a provider closure over `this`, so
  // it must be parked before anything else dies.
  StopTierScrub();
  // Quiesce the scan pool before any member teardown. With per-RPC timeouts
  // and hedging a caller can be answered — and cluster teardown reached —
  // while a slow scan is still running on this node's pool (its delivery
  // already consumed by the timeout's once-only guard). Members are
  // destroyed in reverse declaration order, so index_ would die before
  // node_'s destructor joins the workers; join them here instead, while the
  // index the scan reads is still alive. The straggler's late delivery is
  // suppressed by its guard, so no completed caller is touched.
  node_.pool().Shutdown();
  StopConsuming();
}

void Searcher::InstallIndex(std::unique_ptr<IvfIndex> index) {
  InstallIndex(std::move(index),
               applied_sequence_.load(std::memory_order_relaxed));
}

void Searcher::InstallIndex(std::unique_ptr<IvfIndex> index,
                            std::uint64_t update_hwm) {
  std::lock_guard lock(writer_mu_);
  if (indexer_) {
    retired_counters_.Add(indexer_->counters());
    retired_latency_.Merge(indexer_->latency_micros());
  }
  std::shared_ptr<IvfIndex> shared = std::move(index);
  indexer_ = std::make_unique<RealTimeIndexer>(
      *shared, features_, filter_, seed_ ^ 0xAB5EULL,
      MonotonicClock::Instance(), registry_, node_.name());
  applied_sequence_.store(update_hwm, std::memory_order_relaxed);
  // Swap is the last step: searches switch to the new index only once its
  // writer is ready.
  index_.store(std::move(shared), std::memory_order_release);
}

void Searcher::SaveIndexSnapshot(const std::string& path) const {
  std::lock_guard lock(writer_mu_);  // consistent point-in-time image
  const std::shared_ptr<IvfIndex> index =
      index_.load(std::memory_order_acquire);
  if (!index) throw std::runtime_error(node_.name() + ": no index to save");
  jdvs::SaveIndexSnapshot(*index, path,
                          applied_sequence_.load(std::memory_order_relaxed));
}

void Searcher::InstallFromSnapshot(const std::string& path) {
  std::uint64_t hwm = 0;
  auto index = LoadIndexSnapshot(path, &hwm);
  InstallIndex(std::move(index), hwm);
}

void Searcher::InstallFromTieredSnapshot(const std::string& path,
                                         std::size_t resident_budget_bytes) {
  TieredStoreConfig tier;
  tier.resident_bytes_budget = resident_budget_bytes;
  tier.registry = registry_;
  tier.fault_injector = fault_injector_;
  tier.node_name = node_.name();
  std::uint64_t hwm = 0;
  auto index = LoadTieredSnapshot(path, tier, &hwm);
  InstallIndex(std::move(index), hwm);
}

std::uint64_t Searcher::tier_quarantined_lists() const {
  const std::shared_ptr<IvfIndex> index =
      index_.load(std::memory_order_acquire);
  if (!index) return 0;
  const std::shared_ptr<TieredListStore> store = index->tiered_store_shared();
  return store != nullptr ? store->quarantined_lists() : 0;
}

void Searcher::StartTierScrub(const TierScrubConfig& config) {
  std::lock_guard lock(scrub_mu_);
  if (scrubber_) scrubber_->Stop();
  TierScrubConfig cfg = config;
  if (cfg.registry == nullptr) cfg.registry = registry_;
  scrubber_ = std::make_unique<TierScrubber>(
      [this]() -> std::shared_ptr<TieredListStore> {
        const std::shared_ptr<IvfIndex> index =
            index_.load(std::memory_order_acquire);
        return index != nullptr ? index->tiered_store_shared() : nullptr;
      },
      cfg);
  scrubber_->Start();
}

void Searcher::StopTierScrub() {
  std::lock_guard lock(scrub_mu_);
  if (scrubber_) scrubber_->Stop();
}

void Searcher::DropTierResidency() {
  const std::shared_ptr<IvfIndex> index =
      index_.load(std::memory_order_acquire);
  if (!index) return;
  if (const std::shared_ptr<TieredListStore> store =
          index->tiered_store_shared()) {
    store->DropResidency();
  }
}

void Searcher::Crash() {
  // Fail the node first so in-flight and new searches observe the outage,
  // then tear down mutable state as a process restart would.
  node_.set_failed(true);
  StopConsuming();
  std::lock_guard lock(writer_mu_);
  if (indexer_) {
    retired_counters_.Add(indexer_->counters());
    retired_latency_.Merge(indexer_->latency_micros());
    indexer_.reset();
  }
  applied_sequence_.store(0, std::memory_order_relaxed);
  index_.store(nullptr, std::memory_order_release);
}

std::size_t Searcher::CatchUpFromLog(const MessageLog& log,
                                     const CatchUpPacer& pacer) {
  // Snapshot outside the writer mutex; ApplyUpdate takes it per message and
  // skips anything at or below the high-water mark.
  std::size_t replayed = 0;
  std::size_t visited = 0;
  for (const ProductUpdateMessage& message : log.Snapshot()) {
    // Every visited message counts as consumed (same as ConsumeLoop: dedup
    // is an apply decision, not a consumption one), so drain accounting
    // stays monotone across a recovery.
    const bool applied = ApplyUpdate(message);
    messages_consumed_.fetch_add(1, std::memory_order_relaxed);
    consumed_total_->Increment();
    if (progress_listener_) progress_listener_();
    if (applied) ++replayed;
    // Yield to the pacer between batches, not per message: catch-up should
    // stay fast when the cluster is healthy and only throttle under load.
    if (pacer && (++visited % 64) == 0) pacer();
  }
  return replayed;
}

std::future<std::vector<SearchHit>> Searcher::SearchAsync(
    FeatureVector query, std::size_t k, SearchOptions options) {
  // Future facade over the continuation path, for tests and tools that want
  // a blocking join; the broker drives the callback overload directly.
  using Hits = AsyncResult<std::vector<SearchHit>>;
  auto [done, future] = PromiseCallback<std::vector<SearchHit>>();
  SearchAsync(std::move(query), k, std::move(options),
              [done = std::move(done)](SearchResult result) {
                done(result.ok() ? Hits::Ok(result.value->hits.Unpack())
                                 : Hits::Fail(result.error));
              });
  return std::move(future);
}

void Searcher::SearchAsync(FeatureVector query, std::size_t k,
                           SearchOptions options, SearchCallback on_done,
                           Micros rpc_timeout_micros) {
  const CallOptions call{.sink = trace_sink_,
                         .parent = options.parent,
                         .span_name = "searcher.scan",
                         .deadline = options.deadline,
                         .timeout_micros = rpc_timeout_micros};
  node_.Call(
      call,
      [this, query = std::move(query), k,
       options = std::move(options)](obs::Span& span) {
        span.AddTag("k", static_cast<std::uint64_t>(k));
        if (options.nprobe > 0) {
          span.AddTag("nprobe", static_cast<std::uint64_t>(options.nprobe));
        }
        const FilterExpression& filter = options.filter;
        const bool filtered = !filter.empty();
        FilterScanStats fstats;
        TierScanStats tstats;
        // A tiered partition under a deadline gives cold-list faults half
        // the remaining budget, so a string of disk reads degrades the query
        // to a reduced nprobe instead of blowing through the whole budget
        // (the cheapest rung of the degradation ladder, applied at the io
        // layer). A RAM-resident index ignores the io budget.
        const Micros io_budget =
            options.deadline.unlimited()
                ? 0
                : std::max<Micros>(1, options.deadline.RemainingMicros(
                                          MonotonicClock::Instance()) /
                                          2);
        const Stopwatch watch(MonotonicClock::Instance());
        ScanReply reply;
        reply.hits = CurrentIndex()->SearchList(
            query, k,
            {.nprobe = options.nprobe,
             .filter = &filter,
             .filter_stats = filtered ? &fstats : nullptr,
             .io_budget_micros = io_budget,
             .tier_stats = &tstats});
        const Micros elapsed = watch.ElapsedMicros();
        scan_stage_->RecordWithExemplar(elapsed, span.context().trace_id);
        span.AddTag("hits", static_cast<std::uint64_t>(reply.hits.size()));
        if (tstats.lists_hit + tstats.lists_faulted > 0) {
          // Tiered partition: attribute the cold-read cost to its own stage
          // and surface per-scan tier behaviour on the span.
          io_stage_->RecordWithExemplar(tstats.fault_micros,
                                        span.context().trace_id);
          if (tstats.lists_faulted > 0) {
            span.AddTag("tier_faults",
                        static_cast<std::uint64_t>(tstats.lists_faulted));
          }
          if (tstats.probes_dropped > 0) {
            span.AddTag("tier_probes_dropped",
                        static_cast<std::uint64_t>(tstats.probes_dropped));
          }
          reply.io_micros = tstats.fault_micros;
        }
        if (tstats.lists_quarantined > 0) {
          // This scan skipped quarantined (corrupt/faulting) lists: the
          // answer is correct but incomplete — the integrity rung of the
          // degradation ladder. Outside the lists_hit+faulted block above
          // because a scan whose every probe is poisoned hits neither.
          span.AddTag("tier_quarantine_skips",
                      static_cast<std::uint64_t>(tstats.lists_quarantined));
          reply.tier_degraded = true;
        }
        if (filtered) {
          filter_stage_->RecordWithExemplar(fstats.materialize_micros,
                                            span.context().trace_id);
          filter_selectivity_bp_->Record(fstats.selectivity_bp);
          (fstats.strategy == FilterScanStats::Strategy::kPost
               ? filter_post_total_
               : filter_pre_total_)
              ->Increment();
          filter_blocks_skipped_->Increment(fstats.blocks_skipped);
          if (fstats.widened_nprobe) filter_widened_->Increment();
          span.AddTag("filter", filter.ToString());
          span.AddTag("filter_selectivity_bp",
                      static_cast<std::uint64_t>(fstats.selectivity_bp));
          span.AddTag("filter_strategy", FilterStrategyName(fstats.strategy));
          reply.filter_micros = fstats.materialize_micros;
        }
        return reply;
      },
      [this, done = std::move(on_done)](SearchResult result) {
        // This is the bottom tier, so a DeadlineExceededError here was
        // raised here: the budget died in this searcher's queue.
        if (!result.ok() && qos::IsDeadlineExceeded(result.error)) {
          deadline_exceeded_->Increment();
        }
        done(std::move(result));
      });
}

std::shared_ptr<IvfIndex> Searcher::CurrentIndex() const {
  std::shared_ptr<IvfIndex> index = index_.load(std::memory_order_acquire);
  if (!index) throw std::runtime_error(node_.name() + ": no index installed");
  return index;
}

std::vector<SearchHit> Searcher::SearchLocal(
    FeatureView query, std::size_t k, const IvfSearchOptions& options) const {
  return CurrentIndex()->Search(query, k, options);
}

std::vector<SearchHit> Searcher::SearchLocal(FeatureView query, std::size_t k,
                                             std::size_t nprobe,
                                             CategoryId category,
                                             const FilterExpression& filter,
                                             FilterScanStats* stats) const {
  FilterExpression scoped;
  if (category != kNoCategoryFilter) (scoped = filter).WithCategory(category);
  return SearchLocal(query, k,
                     {.nprobe = nprobe,
                      .filter = scoped.empty() ? &filter : &scoped,
                      .filter_stats = stats});
}

void Searcher::RenderTierStatus(std::ostream& os) const {
  const std::shared_ptr<IvfIndex> index =
      index_.load(std::memory_order_acquire);
  if (!index) return;
  const TieredListStore* store = index->tiered_store();
  if (store == nullptr) return;
  os << node_.name() << ":\n";
  store->RenderStatus(os);
}

std::vector<SearchHit> Searcher::SearchExhaustiveLocal(FeatureView query,
                                                       std::size_t k) const {
  return CurrentIndex()->SearchExhaustive(query, k);
}

std::vector<SearchHit> Searcher::SearchExhaustiveLocal(
    FeatureView query, std::size_t k, const FilterExpression& filter) const {
  return CurrentIndex()->SearchExhaustive(query, k, filter);
}

void Searcher::StartConsuming(std::shared_ptr<Subscription> subscription) {
  std::lock_guard lock(consumer_mu_);
  StopConsumingLocked();
  subscription_ = std::move(subscription);
  consumer_ = std::thread([this, sub = subscription_] { ConsumeLoop(sub); });
}

void Searcher::StopConsuming() {
  std::lock_guard lock(consumer_mu_);
  StopConsumingLocked();
}

void Searcher::StopConsumingLocked() {
  if (subscription_) subscription_->Close();
  if (consumer_.joinable()) consumer_.join();
  subscription_.reset();
}

void Searcher::ConsumeLoop(std::shared_ptr<Subscription> subscription) {
  while (auto message = subscription->Receive()) {
    ApplyUpdate(*message);
    messages_consumed_.fetch_add(1, std::memory_order_relaxed);
    consumed_total_->Increment();
    if (progress_listener_) progress_listener_();
  }
}

bool Searcher::ApplyUpdate(const ProductUpdateMessage& message) {
  std::lock_guard lock(writer_mu_);
  if (!indexer_) {
    JDVS_LOG(kWarning) << node_.name() << ": dropping update before index install";
    return false;
  }
  if (message.sequence != 0 &&
      message.sequence <= applied_sequence_.load(std::memory_order_relaxed)) {
    // Duplicate of an already-applied update (catch-up replay overlaps the
    // fresh subscription's buffered backlog); applying twice would be wrong
    // for attribute deltas, so skip by sequence.
    deduped_total_->Increment();
    return false;
  }
  // Real-time leg of a sampled trace: publish → queue → this partition's
  // apply, stitched together by the context carried in the message.
  obs::Span span(trace_sink_, MonotonicClock::Instance(),
                 obs::TraceContext{message.trace_id, message.parent_span_id},
                 "rt.apply", node_.name());
  span.AddTag("type", UpdateTypeName(message.type));
  span.AddTag("product", static_cast<std::uint64_t>(message.product_id));
  indexer_->Apply(message);
  if (message.sequence != 0) {
    applied_sequence_.store(message.sequence, std::memory_order_relaxed);
  }
  return true;
}

RealTimeIndexerCounters Searcher::update_counters() const {
  std::lock_guard lock(writer_mu_);
  RealTimeIndexerCounters total = retired_counters_;
  if (indexer_) total.Add(indexer_->counters());
  return total;
}

void Searcher::MergeUpdateLatencyInto(Histogram& out) const {
  std::lock_guard lock(writer_mu_);
  out.Merge(retired_latency_);
  if (indexer_) out.Merge(indexer_->latency_micros());
}

IvfIndexStats Searcher::index_stats() const {
  const std::shared_ptr<IvfIndex> index =
      index_.load(std::memory_order_acquire);
  if (!index) return IvfIndexStats{};
  return index->Stats();
}

}  // namespace jdvs
