// Blender: top tier of Figure 10.
//
// "When a blender receives an image query request, it extracts the features
// and sends them to all the brokers. The blender also combines and ranks the
// results and returns to the user." Query-side feature extraction (detect
// the item, identify its category, run the CNN) happens here, charged via a
// configurable extraction cost.
//
// Execution model: extract + cache lookup run inline on a blender pool
// thread, then the broker fan-out, global merge, attribute ranking, cache
// fill and span finish are continuations — the blender thread frees itself
// after dispatching, broker results count down a FanInCollector, and the
// merge/rank leg is re-posted to the blender pool by the last broker
// completion. The public SearchAsync future is fulfilled by a promise at
// the end of the chain; only the blocking Search() facade ever waits.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "embedding/category_detector.h"
#include "embedding/extractor.h"
#include "net/node.h"
#include "net/rpc.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "qos/admission.h"
#include "qos/deadline.h"
#include "qos/load_controller.h"
#include "search/broker.h"
#include "search/query_cache.h"
#include "search/ranking.h"
#include "search/types.h"

namespace jdvs {

// Thrown (through the returned future) when a blender sheds load because
// its in-flight query count exceeded the configured admission limit. The
// front end treats an overloaded blender like a failed one and retries on
// another instance.
class BlenderOverloadedError : public std::runtime_error {
 public:
  explicit BlenderOverloadedError(const std::string& blender)
      : std::runtime_error("blender overloaded: " + blender) {}
};

class Blender {
 public:
  struct Config {
    std::size_t threads = 4;
    LatencyModel latency;
    std::uint64_t seed = 0;
    // Simulated query-side CNN cost (item detection + feature extraction).
    std::int64_t query_extraction_micros = 0;
    RankingConfig ranking;
    std::size_t default_k = 10;
    std::size_t nprobe = 0;  // 0 = searcher index default
    // When true, a query whose filter names no category gets the detected
    // category as a WithCategory term, pushed down to searchers like any
    // other predicate (Section 2.4's category identification narrowing the
    // search) instead of only boosting the ranking. A misdetection then
    // excludes the true product from retrieval entirely.
    bool use_category_filter = false;
    // Admission control: maximum queries in flight (queued + executing) on
    // this blender before new ones are shed; 0 disables the limit.
    std::size_t max_in_flight = 0;
    // QoS knobs (all default to the pre-QoS behavior):
    // Extra cap on background-class queries (recovery catch-up, probes) so
    // they can never occupy more than this share of slots; 0 = no extra cap.
    std::size_t max_background_in_flight = 0;
    // Token bucket on admissions per second across both classes; 0 = off.
    double admission_tokens_per_sec = 0.0;
    double admission_token_burst = 0.0;  // 0 = one second of tokens
    // Latency budget stamped on queries that don't carry one
    // (QueryOptions::kNoBudget); 0 = unlimited.
    Micros default_budget_micros = 0;
    // Shared degradation controller (typically owned by the cluster, fed by
    // every blender); null = never degrade.
    qos::LoadController* load_controller = nullptr;
    // nprobe used while degraded (level >= 1); 0 falls back to 1, the most
    // aggressive shrink — the cluster builder normally sets this to a
    // fraction of the index's configured nprobe.
    std::size_t degraded_nprobe = 0;
    // Per-call blender->broker RPC timeout; 0 = none. A broker whose reply
    // the fabric swallowed then costs one timeout instead of hanging the
    // whole fan-in: the slot fails typed (RpcTimeoutError), the blender
    // degrades to the surviving brokers' coverage, and the query completes.
    Micros broker_rpc_timeout_micros = 0;
    // Result cache (off by default: the paper's freshness requirement).
    bool enable_result_cache = false;
    QueryCacheConfig cache;
    // Source of the index-version counter for strict cache invalidation;
    // null falls back to TTL-only staleness bounding.
    const std::atomic<std::uint64_t>* index_version = nullptr;
    // Observability (null = process-global defaults). The tracer decides
    // which queries get a root span (its sample_every knob); the registry
    // receives per-blender counters and the per-stage latency histograms;
    // the slow log retains span trees of queries over its threshold.
    obs::Registry* registry = nullptr;
    obs::Tracer* tracer = nullptr;
    obs::SlowQueryLog* slow_log = nullptr;
    // Performance diagnosis (null = off). The flight recorder receives a
    // stage-timing record for *every* completed query (sampled or not); the
    // aggregator folds each sampled query's critical path into registry
    // histograms after the root span finishes.
    obs::FlightRecorder* flight_recorder = nullptr;
    obs::CriticalPathAggregator* critical_paths = nullptr;
  };

  Blender(std::string name, const Config& config,
          const SyntheticEmbedder& embedder, const CategoryDetector& detector,
          std::vector<Broker*> brokers);
  // Joins in-flight pool tasks before member teardown (see definition).
  ~Blender();

  Blender(const Blender&) = delete;
  Blender& operator=(const Blender&) = delete;

  // Full query path on this blender's node; blocks until the response is
  // ready (the front end's synchronous HTTP round trip). This facade is the
  // only place the query path waits on a future.
  QueryResponse Search(const QueryImage& query, const QueryOptions& options);
  QueryResponse Search(const QueryImage& query) {
    return Search(query, QueryOptions{.k = config_.default_k,
                                      .nprobe = config_.nprobe});
  }

  std::future<QueryResponse> SearchAsync(const QueryImage& query,
                                         const QueryOptions& options);

  // Continuation-passing entry point: the outcome (response, or the typed
  // admission/deadline error) is delivered to `on_done` on whichever pool
  // thread finishes the chain — or inline, synchronously, when the query is
  // shed at admission (overload or a zero budget) without touching the
  // pool. Open-loop load generators drive this overload: dispatch never
  // blocks on completion, so offered load is independent of service rate.
  using SearchCallback = std::function<void(AsyncResult<QueryResponse>)>;
  void SearchAsync(const QueryImage& query, const QueryOptions& options,
                   SearchCallback on_done);

  bool healthy() const { return !node_.failed(); }
  Node& node() { return node_; }
  const std::string& name() const { return node_.name(); }
  std::uint64_t queries_served() const {
    return queries_.load(std::memory_order_relaxed);
  }
  std::uint64_t queries_shed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  // Null when the result cache is disabled.
  const QueryCache* result_cache() const { return cache_.get(); }
  std::size_t in_flight() const { return admission_.total_in_flight(); }
  // The priority-aware admission controller gating this blender (per-class
  // admitted/shed counts for harnesses and tests).
  const qos::AdmissionController& admission() const { return admission_; }

 private:
  // Heap-owned per-request state shared by the continuation chain. Owns the
  // root span (so the trace stitches across thread hops), the response
  // under construction, and the promise fulfilled at the end of the chain.
  // Fulfillment releases the in-flight admission slot on *every* path —
  // success, broker failure, NodeFailedError before the chain starts — and
  // the destructor backstops a dropped chain so the future never dangles.
  struct RequestState;

  void BeginQuery(const std::shared_ptr<RequestState>& state,
                  const QueryImage& query);
  void FinishQuery(const std::shared_ptr<RequestState>& state,
                   std::vector<AsyncResult<Broker::Reply>> slots);

  // Files the request's stage timings with the flight recorder (every
  // completion path: success, cache hit, deadline death). Returns the
  // record's ordinal (0 when no recorder is wired), used as the exemplar
  // ref on the query_total histogram so even unsampled queries stay
  // findable from a latency bucket.
  std::uint64_t RecordFlight(RequestState& state, Micros total_micros,
                             bool error, bool cache_hit);

  // Resolves the query's latency budget (explicit, configured default, or
  // unlimited) into an absolute deadline.
  qos::Deadline ResolveDeadline(const QueryOptions& options) const;

  Config config_;
  Node node_;
  const SyntheticEmbedder& embedder_;
  const CategoryDetector& detector_;
  std::vector<Broker*> brokers_;
  std::unique_ptr<QueryCache> cache_;
  obs::Tracer* tracer_;
  qos::AdmissionController admission_;
  obs::Counter* queries_total_;   // registry mirror of queries_
  obs::Counter* shed_total_;      // registry mirror of shed_
  obs::Counter* degraded_total_;  // queries answered with partial coverage
  obs::Counter* deadline_exceeded_;   // jdvs_qos_deadline_exceeded_total{tier=blender}
  obs::Counter* degraded_level_[2];   // jdvs_qos_degraded_queries_total{level=1|2}
  Histogram* total_stage_;        // jdvs_stage_micros{stage="query_total"}
  Histogram* extract_stage_;      // jdvs_stage_micros{stage="extract"}
  Histogram* rank_stage_;         // jdvs_stage_micros{stage="rank"}
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace jdvs
