#include "search/blender.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/timeout.h"

namespace jdvs {

Blender::Blender(std::string name, const Config& config,
                 const SyntheticEmbedder& embedder,
                 const CategoryDetector& detector, std::vector<Broker*> brokers)
    : config_(config),
      node_(std::move(name), config.threads, config.latency, config.seed),
      embedder_(embedder),
      detector_(detector),
      brokers_(std::move(brokers)),
      tracer_(config.tracer != nullptr ? config.tracer
                                       : &obs::Tracer::Default()),
      admission_(
          qos::AdmissionConfig{
              .max_in_flight = config.max_in_flight,
              .max_background_in_flight = config.max_background_in_flight,
              .tokens_per_sec = config.admission_tokens_per_sec,
              .token_burst = config.admission_token_burst,
          },
          MonotonicClock::Instance(), config.registry) {
  obs::Registry& registry =
      config_.registry != nullptr ? *config_.registry : obs::Registry::Default();
  queries_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_blender_queries_total", "blender", node_.name()));
  shed_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_blender_shed_total", "blender", node_.name()));
  degraded_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_blender_degraded_total", "blender", node_.name()));
  deadline_exceeded_ = &registry.GetCounter(
      obs::Labeled("jdvs_qos_deadline_exceeded_total", "tier", "blender"));
  degraded_level_[0] = &registry.GetCounter(
      obs::Labeled("jdvs_qos_degraded_queries_total", "level", "1"));
  degraded_level_[1] = &registry.GetCounter(
      obs::Labeled("jdvs_qos_degraded_queries_total", "level", "2"));
  total_stage_ = &registry.GetHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "query_total"));
  // End-to-end latency carries exemplars: a p99 bucket links straight to a
  // concrete trace id / flight-record ordinal.
  total_stage_->EnableExemplars();
  extract_stage_ = &registry.GetHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "extract"));
  rank_stage_ = &registry.GetHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "rank"));
  if (config_.enable_result_cache) {
    cache_ = std::make_unique<QueryCache>(
        embedder_.dim(), config_.cache, MonotonicClock::Instance(),
        config_.registry, node_.name());
  }
}

Blender::~Blender() {
  // Quiesce the pool before member teardown: members declared after node_
  // (cache_, admission_, ...) are destroyed before node_'s destructor would
  // join the workers, so a straggler continuation still running on the pool
  // must be joined here first. Blenders are torn down before brokers and
  // searchers, so in-flight work can still complete downstream safely.
  node_.pool().Shutdown();
}

struct Blender::RequestState {
  RequestState(Blender* blender, SearchCallback done)
      : blender(blender),
        watch(MonotonicClock::Instance()),
        on_done(std::move(done)) {}

  // Backstop: if the chain is dropped (every continuation released without
  // fulfilling), the callback must still fire and the admission ticket must
  // still be released.
  ~RequestState() {
    Fail(std::make_exception_ptr(
        std::runtime_error("query pipeline dropped before completion")));
  }

  // Exactly one of Fulfill/Fail wins; both release the admission ticket
  // *before* delivering the outcome, so in_flight() reads 0 as soon as the
  // caller observes completion.
  void Fulfill(QueryResponse result) {
    if (fulfilled.exchange(true, std::memory_order_acq_rel)) return;
    ticket.Release();
    on_done(AsyncResult<QueryResponse>::Ok(std::move(result)));
  }
  void Fail(std::exception_ptr error) {
    if (fulfilled.exchange(true, std::memory_order_acq_rel)) return;
    ticket.Release();
    on_done(AsyncResult<QueryResponse>::Fail(std::move(error)));
  }

  Blender* blender;
  qos::AdmissionController::Ticket ticket;
  QueryOptions options;
  qos::Deadline deadline;
  Stopwatch watch;
  // Flight-recorder stage decomposition, filled in as the chain advances.
  // `submitted_micros` is stamped at SearchAsync so the queue-wait stage
  // covers admission + pool queue + hop (watch.Restart() excludes them
  // from the response time on purpose).
  Micros submitted_micros = 0;
  Micros fanout_dispatched_micros = 0;
  obs::FlightRecord flight;
  obs::Span root;  // owned here so the trace spans every thread hop
  QueryResponse response;
  std::size_t fetch_k = 0;
  bool skip_rerank = false;  // degradation level >= 2
  std::uint64_t cache_key = 0;
  std::uint64_t version = 0;
  SearchCallback on_done;
  std::atomic<bool> fulfilled{false};
};

QueryResponse Blender::Search(const QueryImage& query,
                              const QueryOptions& options) {
  return SearchAsync(query, options).get();
}

std::future<QueryResponse> Blender::SearchAsync(const QueryImage& query,
                                                const QueryOptions& options) {
  // Future facade over the continuation path; only the blocking Search()
  // facade ever waits on it.
  auto [done, future] = PromiseCallback<QueryResponse>();
  SearchAsync(query, options, std::move(done));
  return std::move(future);
}

qos::Deadline Blender::ResolveDeadline(const QueryOptions& options) const {
  Micros budget = options.budget_micros;
  if (budget == QueryOptions::kNoBudget) {
    if (config_.default_budget_micros <= 0) return qos::Deadline();  // unlimited
    budget = config_.default_budget_micros;
  }
  if (budget < 0) return qos::Deadline();
  return qos::Deadline::FromBudget(MonotonicClock::Instance(), budget);
}

void Blender::SearchAsync(const QueryImage& query, const QueryOptions& options,
                          SearchCallback on_done) {
  // Deadline check before admission: a query with no time left is shed
  // immediately — no pool submission, no admission token burned.
  const qos::Deadline deadline = ResolveDeadline(options);
  if (deadline.Expired(MonotonicClock::Instance())) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_total_->Increment();
    deadline_exceeded_->Increment();
    on_done(AsyncResult<QueryResponse>::Fail(
        std::make_exception_ptr(qos::DeadlineExceededError(node_.name()))));
    return;
  }
  // Admission control: the query counts against the in-flight budget at
  // submission, so queued work counts too; shed when the budget (or the
  // background share, or the token bucket) is exhausted. The front end
  // treats an overloaded blender like a failed one and retries elsewhere.
  std::optional<qos::AdmissionController::Ticket> ticket =
      admission_.TryAdmit(options.priority);
  if (!ticket) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_total_->Increment();
    on_done(AsyncResult<QueryResponse>::Fail(
        std::make_exception_ptr(BlenderOverloadedError(node_.name()))));
    return;
  }
  auto state = std::make_shared<RequestState>(this, std::move(on_done));
  state->ticket = *std::move(ticket);
  state->options = options;
  state->deadline = deadline;
  state->submitted_micros = MonotonicClock::Instance().NowMicros();
  state->flight.start_micros = state->submitted_micros;
  node_.Call(
      {}, [this, state, query](obs::Span&) { BeginQuery(state, query); },
      [state](AsyncResult<void> begun) {
        // An exception here means the chain never started (NodeFailedError
        // while this blender is down, or a pre-dispatch stage threw after
        // BeginQuery rethrew); the admission ticket is released by Fail.
        if (!begun.ok()) state->Fail(begun.error);
      });
}

// Inline stages on a blender pool thread: trace root, extract, cache
// lookup, then the broker fan-out dispatch. Returns as soon as the last
// broker call is dispatched; everything downstream is continuations.
void Blender::BeginQuery(const std::shared_ptr<RequestState>& state,
                         const QueryImage& query) {
  state->watch.Restart();  // response time excludes queue/hop, as before
  state->flight.set_stage(
      obs::FlightStage::kQueueWait,
      MonotonicClock::Instance().NowMicros() - state->submitted_micros);
  // Sampled 1-in-N by the tracer; an unsampled root makes every child span
  // below (extract, broker fan-out, searcher scans, rank) a no-op.
  state->root = tracer_->StartTrace("query", node_.name());
  obs::Span& root = state->root;
  root.AddTag("k", static_cast<std::uint64_t>(state->options.k));
  if (state->options.nprobe > 0) {
    root.AddTag("nprobe", static_cast<std::uint64_t>(state->options.nprobe));
  }
  if (!state->deadline.unlimited()) {
    root.AddTag("deadline_at",
                static_cast<std::uint64_t>(state->deadline.at_micros()));
  }
  if (state->options.priority == qos::Priority::kBackground) {
    root.AddTag("priority", "background");
  }
  state->response.trace_id = root.context().trace_id;

  // 1. Detect the item and identify its category (Section 2.4).
  // 2. Extract the query photo's high-dimensional features, charging the
  //    simulated CNN cost.
  FeatureVector feature;
  {
    obs::Span extract = root.StartChild("extract", node_.name());
    const Stopwatch extract_watch(MonotonicClock::Instance());
    state->response.detected_category =
        detector_.Detect(query.true_category, query.query_seed);
    if (config_.query_extraction_micros > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.query_extraction_micros));
    }
    feature = embedder_.ExtractQuery(query.subject_product,
                                     query.true_category, query.query_seed);
    const Micros extract_micros = extract_watch.ElapsedMicros();
    extract_stage_->Record(extract_micros);
    state->flight.set_stage(obs::FlightStage::kExtract, extract_micros);
  }

  // Extraction (plus the queue time before it) may have eaten the whole
  // budget: give up before the expensive fan-out.
  if (state->deadline.Expired(MonotonicClock::Instance())) {
    deadline_exceeded_->Increment();
    root.AddTag("deadline_exceeded", std::uint64_t{1});
    root.SetError("deadline exceeded");
    root.Finish();
    RecordFlight(*state, state->watch.ElapsedMicros(), /*error=*/true,
                 /*cache_hit=*/false);
    state->Fail(
        std::make_exception_ptr(qos::DeadlineExceededError(node_.name())));
    return;
  }

  // A category scope comes from the query's own filter first, then from
  // the detector when configured to narrow the search (Section 2.4).
  FilterExpression& filter = state->options.filter;
  if (config_.use_category_filter &&
      std::ranges::none_of(filter.predicates(), [](const FilterPredicate& p) {
        return p.field == FilterField::kCategory;
      })) {
    filter.WithCategory(state->response.detected_category);
    root.AddTag("category",
                static_cast<std::uint64_t>(state->response.detected_category));
  }

  // 2b. Result cache (when enabled): near-duplicate query photos of a hot
  //     product hit the same locality-sensitive key, skipping the fan-out.
  //     Only full-effort responses are ever inserted, so a hit under
  //     overload returns a full answer for free.
  state->version =
      config_.index_version == nullptr
          ? 0
          : config_.index_version->load(std::memory_order_relaxed);
  if (cache_) {
    state->cache_key = cache_->KeyFor(feature, state->options.k,
                                      state->options.nprobe, filter);
    if (auto cached = cache_->Lookup(state->cache_key, state->version)) {
      cached->from_cache = true;
      cached->total_micros = state->watch.ElapsedMicros();
      cached->trace_id = state->response.trace_id;
      queries_.fetch_add(1, std::memory_order_relaxed);
      queries_total_->Increment();
      const std::uint64_t flight_ordinal = RecordFlight(
          *state, cached->total_micros, /*error=*/false, /*cache_hit=*/true);
      total_stage_->RecordWithExemplar(cached->total_micros,
                                       cached->trace_id, flight_ordinal);
      root.AddTag("cache", "hit");
      root.Finish();
      if (config_.slow_log != nullptr && cached->trace_id != 0) {
        config_.slow_log->Offer(cached->trace_id, cached->total_micros);
      }
      state->Fulfill(*std::move(cached));
      return;
    }
  }

  // 2c. Adaptive degradation: consult the shared load controller and trade
  //     recall for latency while the cluster is hot. Level 1 shrinks nprobe
  //     (each searcher scans fewer inverted lists); level 2 additionally
  //     skips attribute re-ranking and the over-fetch that feeds it.
  std::size_t effective_nprobe = state->options.nprobe;
  int level = config_.load_controller != nullptr
                  ? config_.load_controller->level()
                  : 0;
  level = std::min(level, 2);
  state->response.degradation_level = level;
  if (level >= 1) {
    effective_nprobe =
        config_.degraded_nprobe > 0 ? config_.degraded_nprobe : 1;
    state->skip_rerank = level >= 2;
    degraded_level_[level - 1]->Increment();
    root.AddTag("degradation_level", static_cast<std::uint64_t>(level));
  }

  // 3. "sends them to all the brokers" — parallel fan-out. Fetch more than k
  //    from below so attribute re-ranking has candidates to work with
  //    (unless re-ranking is degraded away). The last broker completion
  //    re-posts the merge/rank leg to this blender's pool (local
  //    continuation, not a network hop).
  state->fetch_k = state->skip_rerank ? state->options.k : state->options.k * 2;
  state->response.brokers_asked = brokers_.size();
  state->fanout_dispatched_micros = MonotonicClock::Instance().NowMicros();
  auto collector = FanInCollector<Broker::Reply>::Create(
      brokers_.size(),
      [this, state](std::vector<AsyncResult<Broker::Reply>> slots) {
        auto pending =
            std::make_shared<std::vector<AsyncResult<Broker::Reply>>>(
                std::move(slots));
        auto finish = [this, state, pending] {
          FinishQuery(state, std::move(*pending));
        };
        if (!node_.pool().Submit(finish)) finish();
      });
  for (std::size_t b = 0; b < brokers_.size(); ++b) {
    // First-completion-wins guard per broker slot: the real reply and the
    // (optional) RPC timeout race, whichever arrives first feeds the
    // collector and the loser is suppressed — a FanInCollector slot must
    // complete exactly once. The timeout bounds the broker's whole fan-out,
    // which completes after the broker's own Node::Call delivered its
    // dispatch result, so it is armed here rather than as that call's.
    auto guard = std::make_shared<OnceCallback<Broker::Reply>>(
        [collector, b](Broker::SearchResult result) {
          collector->Complete(b, std::move(result));
        });
    ArmRpcTimeout(guard, brokers_[b]->name(),
                  config_.broker_rpc_timeout_micros);
    brokers_[b]->SearchAsync(
        feature, state->fetch_k,
        SearchOptions{.nprobe = effective_nprobe,
                      .filter = filter,
                      .deadline = state->deadline,
                      .parent = root.context()},
        [guard](Broker::SearchResult result) {
          DeliverAndCancelTimer(*guard, std::move(result));
        });
  }
}

// End of the chain, back on a blender pool thread: global merge, attribute
// ranking, cache fill, span finish, callback delivery.
void Blender::FinishQuery(const std::shared_ptr<RequestState>& state,
                          std::vector<AsyncResult<Broker::Reply>> slots) {
  // The fan-out wall closes here (last broker completion + the re-post to
  // this pool); its scan/hedge/fan-in decomposition comes from the replies.
  const Micros fanout_wall = MonotonicClock::Instance().NowMicros() -
                             state->fanout_dispatched_micros;
  state->flight.set_stage(obs::FlightStage::kFanOut, fanout_wall);
  Micros scan_micros = 0;
  Micros hedge_wait_micros = 0;
  Micros filter_micros = 0;
  Micros io_micros = 0;
  for (const auto& slot : slots) {
    if (!slot.ok()) continue;
    scan_micros = std::max(scan_micros, slot.value->slowest_attempt_micros);
    hedge_wait_micros =
        std::max(hedge_wait_micros, slot.value->hedge_wait_micros);
    filter_micros = std::max(filter_micros, slot.value->filter_micros);
    io_micros = std::max(io_micros, slot.value->io_micros);
  }
  // The filter-bitmap materialization and any tiered cold-list faults both
  // happened *inside* the winning scan attempts; carve them out of kScan so
  // the stages stay disjoint (kFilter + kIo + kScan = slowest attempt) and
  // the critical-path table attributes each overhead to its own row.
  filter_micros = std::min(filter_micros, scan_micros);
  io_micros = std::min(io_micros, scan_micros - filter_micros);
  state->flight.set_stage(obs::FlightStage::kFilter, filter_micros);
  state->flight.set_stage(obs::FlightStage::kIo, io_micros);
  state->flight.set_stage(obs::FlightStage::kScan,
                          scan_micros - filter_micros - io_micros);
  state->flight.set_stage(obs::FlightStage::kHedgeWait, hedge_wait_micros);
  state->flight.set_stage(obs::FlightStage::kFanIn,
                          fanout_wall - scan_micros - hedge_wait_micros);
  // The budget died somewhere below (broker queues, searcher scans, or the
  // hops between): the answer is late by definition, so fail it typed
  // instead of merging partial results nobody will wait for. Completions
  // still feed the load controller — a deadline death is the strongest
  // overload signal there is.
  if (state->deadline.Expired(MonotonicClock::Instance())) {
    const Micros elapsed = state->watch.ElapsedMicros();
    deadline_exceeded_->Increment();
    state->root.AddTag("deadline_exceeded", std::uint64_t{1});
    state->root.SetError("deadline exceeded");
    state->root.Finish();
    RecordFlight(*state, elapsed, /*error=*/true, /*cache_hit=*/false);
    if (config_.load_controller != nullptr) {
      config_.load_controller->Observe(elapsed, admission_.total_in_flight());
    }
    state->Fail(
        std::make_exception_ptr(qos::DeadlineExceededError(node_.name())));
    return;
  }
  std::size_t failures = 0;
  std::size_t partitions_failed = 0;
  std::size_t tier_degraded = 0;
  std::string first_error;
  std::vector<HitList> partials;
  partials.reserve(slots.size());
  for (auto& slot : slots) {
    if (slot.ok()) {
      partitions_failed += slot.value->partitions_failed;
      tier_degraded += slot.value->tier_degraded;
      partials.push_back(std::move(slot.value->hits));
    } else {
      ++failures;
      if (first_error.empty()) first_error = DescribeException(slot.error);
    }
  }
  state->response.broker_failures = failures;
  if (tier_degraded > 0) {
    // Integrity degradation: some searcher skipped quarantined (corrupt)
    // tiered lists. Every returned hit is correct — the response is just
    // drawn from fewer lists than requested, so flag it like any other
    // partial-coverage answer.
    state->response.degraded = true;
    degraded_total_->Increment();
    state->root.AddTag("tier_degraded",
                       static_cast<std::uint64_t>(tier_degraded));
  }
  if (failures > 0 || partitions_failed > 0) {
    // Graceful degradation: answer from whatever coverage survived — a dead
    // broker or an unreachable partition behind a live broker — rather than
    // failing the query (availability over completeness).
    if (!state->response.degraded) degraded_total_->Increment();
    state->response.degraded = true;
    if (failures > 0) {
      state->root.AddTag("broker_failures",
                         static_cast<std::uint64_t>(failures));
      state->root.SetError(std::move(first_error));
    }
    if (partitions_failed > 0) {
      state->root.AddTag("partitions_failed",
                         static_cast<std::uint64_t>(partitions_failed));
    }
  }

  // 4. "combines and ranks the results": merge by distance, then rank by
  //    similarity + sales/praise/price attributes — unless ranking was
  //    degraded away (level 2), in which case distance order stands. Only
  //    the merge's survivors are unpacked into SearchHits.
  {
    obs::Span rank = state->root.StartChild("rank", node_.name());
    const Stopwatch rank_watch(MonotonicClock::Instance());
    std::vector<SearchHit> merged =
        MergeHitLists(partials, state->fetch_k).Unpack();
    if (state->skip_rerank) {
      rank.AddTag("skipped", std::uint64_t{1});
      state->response.results.reserve(
          std::min(merged.size(), state->options.k));
      for (std::size_t i = 0;
           i < merged.size() && i < state->options.k; ++i) {
        // Score = negated distance so larger-is-better still holds.
        state->response.results.push_back(
            RankedResult{merged[i], -merged[i].distance});
      }
    } else {
      state->response.results =
          RankResults(std::move(merged), state->response.detected_category,
                      config_.ranking, state->options.k);
    }
    const Micros rank_micros = rank_watch.ElapsedMicros();
    rank_stage_->Record(rank_micros);
    state->flight.set_stage(obs::FlightStage::kRank, rank_micros);
  }
  state->response.total_micros = state->watch.ElapsedMicros();
  if (cache_) {
    // Insert() itself refuses degraded/partial responses, so an overloaded
    // window can never poison the cache with low-effort answers.
    cache_->Insert(state->cache_key, state->version, state->response);
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  queries_total_->Increment();
  const std::uint64_t flight_ordinal =
      RecordFlight(*state, state->response.total_micros, /*error=*/false,
                   /*cache_hit=*/false);
  total_stage_->RecordWithExemplar(state->response.total_micros,
                                   state->response.trace_id, flight_ordinal);
  if (config_.load_controller != nullptr) {
    config_.load_controller->Observe(state->response.total_micros,
                                     admission_.total_in_flight());
  }
  // Finish before offering: the slow log renders the complete span tree.
  state->root.Finish();
  if (config_.slow_log != nullptr && state->response.trace_id != 0) {
    config_.slow_log->Offer(state->response.trace_id,
                            state->response.total_micros);
  }
  if (config_.critical_paths != nullptr && state->response.trace_id != 0) {
    // Sampled query: fold its critical path into the per-stage histograms
    // (the spans are complete now that the root finished).
    config_.critical_paths->Observe(state->response.trace_id);
  }
  state->Fulfill(std::move(state->response));
}

std::uint64_t Blender::RecordFlight(RequestState& state, Micros total_micros,
                                    bool error, bool cache_hit) {
  if (config_.flight_recorder == nullptr) return 0;
  state.flight.trace_id = state.response.trace_id;
  state.flight.total_micros = total_micros;
  state.flight.degradation_level =
      static_cast<std::int8_t>(state.response.degradation_level);
  state.flight.degraded = state.response.degraded;
  state.flight.cache_hit = cache_hit;
  state.flight.error = error;
  return config_.flight_recorder->Record(state.flight);
}

}  // namespace jdvs
