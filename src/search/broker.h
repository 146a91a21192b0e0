// Broker: middle tier of Figure 10.
//
// "A broker forwards the query to all the searchers it connects to and
// collects the partial search results from each searcher." Each partition a
// broker owns can have several replica searchers ("Each partition can have
// multiple copies for availability"); the broker queries one replica and
// fails over to the next on error.
//
// The fan-out is continuation-passing: a broker pool thread only *dispatches*
// the first wave, then frees itself. Each searcher response lands in a
// FanInCollector from the searcher's own pool thread; a failed replica is
// re-dispatched to the next copy from inside that completion callback (so
// failover of one partition never delays collection of the others), and the
// merge runs in the final continuation when the last partition arrives. No
// broker thread ever blocks on an in-flight query, so a 1-thread broker
// sustains arbitrarily many concurrent fan-outs.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/replica_state.h"
#include "net/node.h"
#include "net/rpc.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "qos/deadline.h"
#include "search/searcher.h"
#include "search/types.h"

namespace jdvs {

class Broker {
 public:
  struct Config {
    std::size_t threads = 4;
    LatencyModel latency;
    std::uint64_t seed = 0;
    // Observability (null = process-global defaults).
    obs::Registry* registry = nullptr;
    obs::TraceSink* trace_sink = nullptr;

    // ---- Gray-failure defenses (all defaults = pre-fault-layer behavior) --
    // Per-attempt broker->searcher RPC timeout; 0 = none. With a fabric
    // that can drop messages this is what turns a silent hang into a typed
    // RpcTimeoutError the failover path can act on.
    Micros rpc_timeout_micros = 0;
    // Hedged requests: when a slot's primary attempt has not answered after
    // the hedge delay, dispatch the same work to the next serving replica
    // and let the first response win. Never past the query deadline.
    bool enable_hedging = false;
    // Fixed hedge delay; 0 = adaptive, multiplier x the best replica
    // latency EWMA among the slot's candidates ("if the fastest copy would
    // have answered by now, something is wrong"), floored at the min. With
    // no EWMA data yet the adaptive mode does not hedge at all — a cold
    // start must not spend the rate budget on slots that were never slow.
    Micros hedge_delay_micros = 0;
    double hedge_delay_multiplier = 3.0;
    Micros hedge_delay_min_micros = 500;
    // Cap on hedges as a fraction of primary dispatches (<= 0 = uncapped):
    // hedging trades bounded extra load for tail latency, and the cap is
    // the bound.
    double hedge_rate_cap = 0.1;
    // Order each slot's candidates by (state, latency EWMA) instead of pure
    // rotation, so a limping or SUSPECT replica stops being picked first.
    // Every 8th fan-out per partition keeps rotation order as exploration,
    // so a recovered replica's EWMA gets refreshed with primary traffic.
    bool latency_aware_selection = false;
  };

  // One broker's merged answer: the top-k across its partitions, packed as
  // the searchers shipped it, plus how many partitions contributed nothing
  // (every replica down) — the partial coverage signal the blender turns
  // into a degraded response.
  struct Reply {
    HitList hits;
    std::size_t partitions_failed = 0;
    // Diagnosis breakdown for the blender's flight record: the winning
    // attempt of the slowest-contributing slot (the scan that gated this
    // broker), the worst primary->hedge dispatch gap among hedge wins, and
    // the whole dispatch->merge wall at this broker.
    Micros slowest_attempt_micros = 0;
    Micros hedge_wait_micros = 0;
    Micros fanout_micros = 0;
    // The rest is folded from the ScanReply of each slot's winning attempt
    // only; a losing hedge or a timed-out attempt contributes nothing.
    // Slowest filter-bitmap materialization (0 when the query carried no
    // filter) — the blender's "searcher_filter" flight stage.
    Micros filter_micros = 0;
    // Slowest cold-list fault time (0 on RAM-resident partitions) — the
    // blender's "searcher_io" stage.
    Micros io_micros = 0;
    // Slots whose answer skipped quarantined (corrupt) tiered lists: the
    // answer is correct but drawn from fewer lists than asked for, so the
    // blender marks the response degraded.
    std::uint32_t tier_degraded = 0;
  };
  using SearchResult = AsyncResult<Reply>;
  using SearchCallback = std::function<void(SearchResult)>;

  Broker(std::string name, const Config& config);
  // Blocks until every outstanding attempt continuation (stragglers a hedge
  // or timeout already outraced) has landed or been discarded; only then is
  // it safe to free the broker a completed caller might otherwise still be
  // re-entered through.
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // Registers one partition with its replica searchers. `state_slots`, when
  // given, maps each replica to its slot in the control plane's replica
  // state table (parallel to `replicas`); with a table wired via
  // SetReplicaStates the broker rotates across *serving* replicas and skips
  // ones the failure detector marked down, instead of discovering outages
  // one timed-out dispatch at a time.
  void AddPartition(std::vector<Searcher*> replicas,
                    std::vector<std::size_t> state_slots = {});

  // Wires the control plane's replica state table (null = query-time
  // failover only, the pre-control-plane behavior). Non-const: the broker
  // also *feeds* the table, recording every reply's response time into the
  // per-replica latency EWMA the failure detector ejects outliers by.
  void SetReplicaStates(ctrl::ReplicaStateTable* table) {
    replica_states_ = table;
  }

  // Remote entry point, continuation-passing: a broker pool thread runs the
  // fan-out dispatch (one searcher call per partition, each carrying
  // `options`), and `on_done` receives the merged top-k once the last
  // partition lands — on whichever searcher pool thread delivered it. A
  // sampled `options.parent` context yields a "broker.search" span covering
  // dispatch through merge, with failover/failure tags, plus one
  // "searcher.scan" child per partition.
  //
  // The deadline is enforced at the tier boundaries: before the fan-out is
  // dispatched (an already-dead budget never reaches a searcher), inside
  // each searcher (queue time counts), and again before the merge. A
  // replica that failed *because the deadline expired* is never failed over
  // — retrying a timed-out call on a sibling only amplifies the overload.
  void SearchAsync(FeatureVector query, std::size_t k, SearchOptions options,
                   SearchCallback on_done);

  // Future facade over the continuation path (tests / ablation harnesses).
  std::future<std::vector<SearchHit>> SearchAsync(FeatureVector query,
                                                  std::size_t k,
                                                  SearchOptions options = {});

  Node& node() { return node_; }
  const std::string& name() const { return node_.name(); }
  std::size_t num_partitions() const { return partitions_.size(); }

  // Number of replica failovers performed (availability metric).
  std::uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  // Partitions that returned no result at all (all replicas down).
  std::uint64_t partition_failures() const {
    return partition_failures_.load(std::memory_order_relaxed);
  }
  // Replicas skipped at dispatch because the state table marked them
  // non-serving (outage avoided without burning a failed call).
  std::uint64_t state_skips() const {
    return state_skips_.load(std::memory_order_relaxed);
  }
  // Hedged dispatches issued / hedges whose reply won the slot / hedges
  // suppressed by the rate cap / per-attempt RPC timeouts observed.
  std::uint64_t hedges() const {
    return hedges_.load(std::memory_order_relaxed);
  }
  std::uint64_t hedge_wins() const {
    return hedge_wins_.load(std::memory_order_relaxed);
  }
  std::uint64_t hedges_capped() const {
    return hedges_capped_.load(std::memory_order_relaxed);
  }
  std::uint64_t rpc_timeouts() const {
    return rpc_timeouts_.load(std::memory_order_relaxed);
  }
  // Latency EWMA the broker holds for one replica (reads the state table
  // when wired, else broker-local), for tests and benches.
  Micros replica_latency_ewma(std::size_t partition,
                              std::size_t replica) const;
  // Fan-outs currently between dispatch and final merge, and the high-water
  // mark — the direct measure of pipeline concurrency the blocking design
  // capped at `threads`.
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  std::size_t peak_in_flight() const {
    return peak_in_flight_.load(std::memory_order_relaxed);
  }

 private:
  // Per-request fan-out state, heap-owned and shared by the child
  // continuations; the span lives here so the trace covers the whole
  // thread-hopping dispatch -> merge window.
  struct FanOutState;
  struct Slot;
  enum class AttemptKind { kPrimary, kFailover, kHedge };

  void StartFanOut(std::shared_ptr<FanOutState> state);
  // Dispatches the slot's next untried candidate (primary, failover or
  // hedge — they all drain the same list), counting the attempt by `kind`
  // before it is sent, so no reply can overtake its own count. False when
  // none remain.
  bool TryDispatchNext(const std::shared_ptr<FanOutState>& state,
                       std::size_t slot_idx, AttemptKind kind);
  void OnAttemptResult(const std::shared_ptr<FanOutState>& state,
                       std::size_t slot_idx, std::size_t replica,
                       bool is_hedge, Micros dispatched_at,
                       Searcher::SearchResult result);
  // Hedge-timer continuation: re-dispatch the slot if it is still unanswered
  // and the deadline + rate cap allow it.
  void MaybeHedge(const std::shared_ptr<FanOutState>& state,
                  std::size_t slot_idx);
  void FinishFanOut(std::shared_ptr<FanOutState> state,
                    std::vector<Searcher::SearchResult> slots);
  Micros ComputeHedgeDelay(const FanOutState& state, std::size_t slot_idx);
  bool HedgeBudgetAllows() const;
  void RecordReplicaLatency(std::size_t partition, std::size_t replica,
                            Micros sample_micros);
  // Counted handle carried by every continuation that re-enters this broker
  // (attempt callbacks, hedge timers); the destructor drains the count.
  std::shared_ptr<void> AcquireCallbackToken();

  Node node_;
  Config config_;
  std::vector<std::vector<Searcher*>> partitions_;
  std::vector<std::vector<std::size_t>> partition_state_slots_;
  ctrl::ReplicaStateTable* replica_states_ = nullptr;
  // Per-partition replica rotation cursor (deque: atomics can't move).
  std::deque<std::atomic<std::size_t>> replica_cursors_;
  // Broker-local latency EWMAs, used when no state table is wired (deque of
  // deques: stable addresses for the atomics). [partition][replica].
  std::deque<std::deque<std::atomic<std::int64_t>>> local_latency_;
  obs::TraceSink* trace_sink_;
  Histogram* fanout_stage_;  // jdvs_stage_micros{stage="broker_fanout"}
  // Per-instance atomics back the getters; the registry counters mirror
  // them so one exposition dump reports every broker.
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> partition_failures_{0};
  std::atomic<std::uint64_t> state_skips_{0};
  std::atomic<std::uint64_t> hedges_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
  std::atomic<std::uint64_t> hedges_capped_{0};
  std::atomic<std::uint64_t> rpc_timeouts_{0};
  std::atomic<std::uint64_t> primary_dispatches_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> peak_in_flight_{0};
  std::atomic<std::size_t> pending_callbacks_{0};
  obs::Counter* failovers_total_;
  obs::Counter* partition_failures_total_;
  obs::Counter* state_skips_total_;
  obs::Counter* hedges_total_;       // jdvs_broker_hedges_total
  obs::Counter* hedge_wins_total_;   // jdvs_broker_hedge_wins_total
  obs::Counter* rpc_timeouts_total_; // jdvs_broker_rpc_timeouts_total
  obs::Counter* deadline_exceeded_;  // jdvs_qos_deadline_exceeded_total{tier=broker}
};

}  // namespace jdvs
