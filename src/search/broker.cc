#include "search/broker.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "net/load_balancer.h"
#include "net/timeout.h"

namespace jdvs {
namespace {

// Lock-free EWMA fold, alpha = 1/8 (same shape as
// ctrl::ReplicaStateTable::RecordLatency, for the table-less fallback).
void UpdateEwma(std::atomic<std::int64_t>& ewma, std::int64_t sample) {
  if (sample < 0) sample = 0;
  std::int64_t current = ewma.load(std::memory_order_relaxed);
  std::int64_t next = 0;
  do {
    next = current == 0 ? sample : current + (sample - current) / 8;
    if (next == current) return;
  } while (!ewma.compare_exchange_weak(current, next,
                                       std::memory_order_relaxed));
}

}  // namespace

Broker::Broker(std::string name, const Config& config)
    : node_(std::move(name), config.threads, config.latency, config.seed),
      config_(config),
      trace_sink_(config.trace_sink != nullptr ? config.trace_sink
                                               : &obs::TraceSink::Default()) {
  obs::Registry& registry =
      config.registry != nullptr ? *config.registry : obs::Registry::Default();
  fanout_stage_ = &registry.GetHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "broker_fanout"));
  failovers_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_broker_failovers_total", "broker", node_.name()));
  partition_failures_total_ = &registry.GetCounter(obs::Labeled(
      "jdvs_broker_partition_failures_total", "broker", node_.name()));
  state_skips_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_broker_state_skips_total", "broker", node_.name()));
  hedges_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_broker_hedges_total", "broker", node_.name()));
  hedge_wins_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_broker_hedge_wins_total", "broker", node_.name()));
  rpc_timeouts_total_ = &registry.GetCounter(
      obs::Labeled("jdvs_broker_rpc_timeouts_total", "broker", node_.name()));
  deadline_exceeded_ = &registry.GetCounter(
      obs::Labeled("jdvs_qos_deadline_exceeded_total", "tier", "broker"));
}

Broker::~Broker() {
  // A hedge win or per-attempt timeout completes the caller while the
  // straggler attempt is still in flight on a searcher pool (or armed on
  // the timer wheel); its continuation re-enters this broker when it lands.
  // Every such continuation holds a token, so waiting for the count to
  // drain makes "caller done" safe to follow immediately with teardown.
  // Tokens are released even when a callback is dropped undelivered (the
  // token rides the callback's captures), so this terminates whenever every
  // dispatched attempt resolves or is discarded.
  while (pending_callbacks_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Then join the pool itself while every member the remaining (non-broker-
  // touching) tasks could reach is still alive — members declared after
  // node_ are destroyed before node_'s own destructor would join.
  node_.pool().Shutdown();
}

std::shared_ptr<void> Broker::AcquireCallbackToken() {
  pending_callbacks_.fetch_add(1, std::memory_order_acq_rel);
  return std::shared_ptr<void>(nullptr, [this](void*) {
    pending_callbacks_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void Broker::AddPartition(std::vector<Searcher*> replicas,
                          std::vector<std::size_t> state_slots) {
  auto& ewmas = local_latency_.emplace_back();
  for (std::size_t i = 0; i < replicas.size(); ++i) ewmas.emplace_back(0);
  partitions_.push_back(std::move(replicas));
  partition_state_slots_.push_back(std::move(state_slots));
  replica_cursors_.emplace_back(0);
}

void Broker::RecordReplicaLatency(std::size_t partition, std::size_t replica,
                                  Micros sample_micros) {
  const std::vector<std::size_t>& slots = partition_state_slots_[partition];
  if (replica_states_ != nullptr &&
      slots.size() == partitions_[partition].size()) {
    replica_states_->RecordLatency(slots[replica], sample_micros);
  } else {
    UpdateEwma(local_latency_[partition][replica], sample_micros);
  }
}

Micros Broker::replica_latency_ewma(std::size_t partition,
                                    std::size_t replica) const {
  const std::vector<std::size_t>& slots = partition_state_slots_[partition];
  if (replica_states_ != nullptr &&
      slots.size() == partitions_[partition].size()) {
    return replica_states_->latency_ewma_micros(slots[replica]);
  }
  return local_latency_[partition][replica].load(std::memory_order_relaxed);
}

// One collector slot's dispatch state: the candidate list plus the
// arbitration between its racing attempts (primary, failovers, a hedge).
// `completed` is the slot-level first-completion-wins flag — the node-level
// OnceCallback already guarantees each *attempt* reports once, this one
// guarantees the *slot* completes the collector once.
struct Broker::Slot {
  std::vector<std::size_t> candidates;
  std::atomic<bool> completed{false};
  // Next candidates[] index to try; fetch_add hands each attempt a distinct
  // replica even when a failover and the hedge timer race.
  std::atomic<std::size_t> next_candidate{0};
  // Attempts dispatched and not yet reported. The attempt that drops it to
  // zero with the candidate list exhausted fails the slot.
  std::atomic<std::size_t> outstanding{0};
  std::atomic<std::uint64_t> hedge_timer{0};  // pending TimerId (0 = none)
  // First (primary) dispatch time; a hedge win's wait is measured from it.
  std::atomic<Micros> first_dispatched_at{0};
  std::mutex error_mu;
  std::exception_ptr last_error;  // guarded by error_mu
  // Written by the winning attempt before it completes the collector slot;
  // the collector's acq_rel countdown publishes them to FinishFanOut. The
  // winner's wall time, and its dispatch gap behind the primary when a
  // hedge won.
  Micros attempt_micros = 0;
  Micros hedge_wait_micros = 0;

  void CancelHedgeTimer() {
    const std::uint64_t id = hedge_timer.exchange(0, std::memory_order_acq_rel);
    if (id != 0) TimeoutScheduler::Default().Cancel(id);
  }
};

struct Broker::FanOutState {
  FanOutState(FeatureVector q, std::size_t k, SearchOptions options,
              SearchCallback done)
      : query(std::move(q)),
        k(k),
        options(std::move(options)),
        watch(MonotonicClock::Instance()),
        on_done(std::move(done)) {}

  FeatureVector query;
  std::size_t k;
  // Fanned to every attempt as is, except that `parent` becomes this
  // broker's span context once the span starts.
  SearchOptions options;
  Stopwatch watch;
  SearchCallback on_done;
  obs::Span span;  // "broker.search": dispatch through merge
  // slot i of the collector is partition slot_partition[i]; on failure the
  // slot carries the last replica's error.
  std::vector<std::size_t> slot_partition;
  std::deque<Slot> slots;  // deque: Slot holds atomics + a mutex
  std::shared_ptr<FanInCollector<Searcher::ScanReply>> collector;
  std::atomic<std::uint64_t> failovers{0};
  std::atomic<std::uint64_t> hedge_wins{0};
};

void Broker::SearchAsync(FeatureVector query, std::size_t k,
                         SearchOptions options, SearchCallback on_done) {
  auto state = std::make_shared<FanOutState>(
      std::move(query), k, std::move(options), std::move(on_done));
  node_.Call(
      {},
      // The token covers the tail of the entry task: an attempt can answer
      // the caller while this task is still sweeping hedge timers, and the
      // destructor must not tear the broker down under it.
      [this, state, token = AcquireCallbackToken()](obs::Span&) {
        state->span =
            obs::Span(trace_sink_, MonotonicClock::Instance(),
                      state->options.parent, "broker.search", node_.name());
        state->options.parent = state->span.context();
        StartFanOut(state);
      },
      [state](AsyncResult<void> dispatched) {
        // Fires after the dispatch returns. Success means the fan-out owns
        // the request now; failure (the broker node itself is down) is the
        // caller's to fail over.
        if (!dispatched.ok()) {
          state->on_done(SearchResult::Fail(dispatched.error));
        }
      });
}

std::future<std::vector<SearchHit>> Broker::SearchAsync(
    FeatureVector query, std::size_t k, SearchOptions options) {
  using Hits = AsyncResult<std::vector<SearchHit>>;
  auto [done, future] = PromiseCallback<std::vector<SearchHit>>();
  SearchAsync(std::move(query), k, std::move(options),
              [done = std::move(done)](SearchResult result) {
                done(result.ok() ? Hits::Ok(std::move(result.value->hits))
                                 : Hits::Fail(result.error));
              });
  return std::move(future);
}

// Runs on a broker pool thread; returns as soon as the first wave is
// dispatched.
void Broker::StartFanOut(std::shared_ptr<FanOutState> state) {
  // Budget already dead (spent in the blender->broker hop or this broker's
  // queue): fail before dispatching a single searcher call. The fan-out is
  // the expensive part — shedding here is the whole point of propagating
  // the deadline down the tiers.
  if (state->options.deadline.Expired(MonotonicClock::Instance())) {
    deadline_exceeded_->Increment();
    state->span.AddTag("deadline_exceeded", std::uint64_t{1});
    state->span.SetError("deadline exceeded");
    state->span.Finish();
    state->on_done(SearchResult::Fail(
        std::make_exception_ptr(qos::DeadlineExceededError(node_.name()))));
    return;
  }
  state->span.AddTag("partitions",
                     static_cast<std::uint64_t>(partitions_.size()));
  state->slot_partition.reserve(partitions_.size());
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    if (!partitions_[p].empty()) state->slot_partition.push_back(p);
  }
  const std::size_t current =
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (peak < current &&
         !peak_in_flight_.compare_exchange_weak(peak, current,
                                                std::memory_order_relaxed)) {
  }
  state->collector = FanInCollector<Searcher::ScanReply>::Create(
      state->slot_partition.size(),
      [this, state](std::vector<Searcher::SearchResult> slots) {
        FinishFanOut(state, std::move(slots));
      });
  // Build each slot's candidate list: rotate the starting replica for load
  // spread, and — when the control plane's state table is wired — drop
  // replicas the failure detector marked non-serving, so a known-down node
  // costs nothing at query time.
  for (std::size_t slot_idx = 0; slot_idx < state->slot_partition.size();
       ++slot_idx) {
    const std::size_t partition = state->slot_partition[slot_idx];
    const std::vector<Searcher*>& replicas = partitions_[partition];
    const std::vector<std::size_t>& slots = partition_state_slots_[partition];
    const bool consult_state =
        replica_states_ != nullptr && slots.size() == replicas.size();
    const std::size_t start =
        replica_cursors_[partition].fetch_add(1, std::memory_order_relaxed);
    Slot& slot = state->slots.emplace_back();
    std::vector<std::size_t>& candidates = slot.candidates;
    candidates.reserve(replicas.size());
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      const std::size_t replica = (start + i) % replicas.size();
      if (consult_state && !replica_states_->Serving(slots[replica])) {
        state_skips_.fetch_add(1, std::memory_order_relaxed);
        state_skips_total_->Increment();
        continue;
      }
      candidates.push_back(replica);
    }
    // Latency-aware ordering: UP before SUSPECT (a latency-ejected replica
    // is SUSPECT), then by response-time EWMA ascending — unmeasured
    // replicas (EWMA 0) sort first so they get measured. Every 8th fan-out
    // per partition keeps the plain rotation: without that exploration a
    // recovered replica's stale EWMA would pin it last forever. The
    // partition index is mixed in so the cursors — which advance in
    // lockstep when every query fans out to every partition — don't make
    // one query in 8 explore (and eat the slow primary) on *all* its
    // partitions at once.
    if (config_.latency_aware_selection && candidates.size() > 1 &&
        (start + partition) % 8 != 7) {
      std::stable_sort(
          candidates.begin(), candidates.end(),
          [&](std::size_t a, std::size_t b) {
            const int suspect_a =
                consult_state &&
                replica_states_->Get(slots[a]) == ctrl::ReplicaState::kSuspect;
            const int suspect_b =
                consult_state &&
                replica_states_->Get(slots[b]) == ctrl::ReplicaState::kSuspect;
            if (suspect_a != suspect_b) return suspect_a < suspect_b;
            return replica_latency_ewma(partition, a) <
                   replica_latency_ewma(partition, b);
          });
    }
  }
  for (std::size_t slot_idx = 0; slot_idx < state->slot_partition.size();
       ++slot_idx) {
    Slot& slot = state->slots[slot_idx];
    if (slot.candidates.empty()) {
      // Every replica is marked down: fail the slot immediately instead of
      // burning a doomed call — the blender degrades to a partial answer.
      partition_failures_.fetch_add(1, std::memory_order_relaxed);
      partition_failures_total_->Increment();
      JDVS_LOG(kWarning) << node_.name() << ": partition "
                         << state->slot_partition[slot_idx]
                         << " has no serving replica";
      state->collector->Complete(
          slot_idx, Searcher::SearchResult::Fail(
                        std::make_exception_ptr(NoHealthyBackendError())));
      continue;
    }
    TryDispatchNext(state, slot_idx, AttemptKind::kPrimary);
    // Arm the hedge alongside the primary. The timer checks the deadline
    // and the rate cap when it fires; a slot that completes first cancels
    // it. No point hedging a single-replica slot — there is no sibling.
    const Micros delay = config_.enable_hedging && slot.candidates.size() > 1
                             ? ComputeHedgeDelay(*state, slot_idx)
                             : 0;
    if (delay > 0) {
      const TimeoutScheduler::TimerId id = TimeoutScheduler::Default().Schedule(
          delay, [this, state, slot_idx, token = AcquireCallbackToken()] {
            MaybeHedge(state, slot_idx);
          });
      slot.hedge_timer.store(id, std::memory_order_release);
      // The slot may have completed while we armed the timer; sweep so the
      // timer cannot outlive the request silently.
      if (slot.completed.load(std::memory_order_acquire)) {
        slot.CancelHedgeTimer();
      }
    }
  }
}

Micros Broker::ComputeHedgeDelay(const FanOutState& state,
                                 std::size_t slot_idx) {
  if (config_.hedge_delay_micros > 0) return config_.hedge_delay_micros;
  // Adaptive: keyed to the *fastest* candidate's EWMA, not the primary's —
  // when the primary is the limping replica, "3x the limp" would fire long
  // after the query died; "3x what a healthy copy takes" is the moment the
  // sibling becomes the better bet.
  const std::size_t partition = state.slot_partition[slot_idx];
  Micros best = 0;
  for (const std::size_t replica : state.slots[slot_idx].candidates) {
    const Micros ewma = replica_latency_ewma(partition, replica);
    if (ewma > 0 && (best == 0 || ewma < best)) best = ewma;
  }
  // No latency data yet: don't hedge (return 0 = don't arm). Arming at the
  // floor while every EWMA is cold fires a hedge on virtually every slot of
  // the first wave, burning the whole rate budget on requests that were
  // never slow — and the budget is then gone when a real limper shows up.
  if (best == 0) return 0;
  const auto adaptive = static_cast<Micros>(
      config_.hedge_delay_multiplier * static_cast<double>(best));
  return std::max(config_.hedge_delay_min_micros, adaptive);
}

bool Broker::HedgeBudgetAllows() const {
  if (config_.hedge_rate_cap <= 0.0) return true;
  const auto hedged = static_cast<double>(hedges_.load(std::memory_order_relaxed));
  const auto primaries =
      static_cast<double>(primary_dispatches_.load(std::memory_order_relaxed));
  return hedged < config_.hedge_rate_cap * primaries;
}

bool Broker::TryDispatchNext(const std::shared_ptr<FanOutState>& state,
                             std::size_t slot_idx, AttemptKind kind) {
  Slot& slot = state->slots[slot_idx];
  const std::size_t idx =
      slot.next_candidate.fetch_add(1, std::memory_order_acq_rel);
  if (idx >= slot.candidates.size()) return false;
  const std::size_t partition = state->slot_partition[slot_idx];
  const std::size_t replica = slot.candidates[idx];
  slot.outstanding.fetch_add(1, std::memory_order_acq_rel);
  const bool is_hedge = kind == AttemptKind::kHedge;
  // Failovers count toward the hedge rate cap's base like primaries do.
  if (!is_hedge) {
    primary_dispatches_.fetch_add(1, std::memory_order_relaxed);
  }
  if (kind == AttemptKind::kFailover) {
    state->failovers.fetch_add(1, std::memory_order_relaxed);
    failovers_.fetch_add(1, std::memory_order_relaxed);
    failovers_total_->Increment();
  } else if (is_hedge) {
    hedges_.fetch_add(1, std::memory_order_relaxed);
    hedges_total_->Increment();
  }
  const Micros dispatched_at = MonotonicClock::Instance().NowMicros();
  Micros expected_first = 0;
  slot.first_dispatched_at.compare_exchange_strong(expected_first,
                                                   dispatched_at,
                                                   std::memory_order_relaxed);
  // Hedge/failover dispatches can come from a timer or a searcher thread;
  // scope the RPC source so fault-injection links stay (broker -> searcher).
  RpcSourceScope rpc_source(node_.name());
  partitions_[partition][replica]->SearchAsync(
      state->query, state->k, state->options,
      [this, state, slot_idx, replica, is_hedge, dispatched_at,
       token = AcquireCallbackToken()](Searcher::SearchResult result) {
        OnAttemptResult(state, slot_idx, replica, is_hedge, dispatched_at,
                        std::move(result));
      },
      config_.rpc_timeout_micros);
  return true;
}

void Broker::MaybeHedge(const std::shared_ptr<FanOutState>& state,
                        std::size_t slot_idx) {
  Slot& slot = state->slots[slot_idx];
  slot.hedge_timer.store(0, std::memory_order_release);  // timer consumed
  if (slot.completed.load(std::memory_order_acquire)) return;
  // Composes with the QoS layer: a hedge is new work charged to the same
  // budget, and an expired budget is just as dead on the sibling.
  if (state->options.deadline.Expired(MonotonicClock::Instance())) return;
  if (!HedgeBudgetAllows()) {
    hedges_capped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TryDispatchNext(state, slot_idx, AttemptKind::kHedge);
}

void Broker::OnAttemptResult(const std::shared_ptr<FanOutState>& state,
                             std::size_t slot_idx, std::size_t replica,
                             bool is_hedge, Micros dispatched_at,
                             Searcher::SearchResult result) {
  Slot& slot = state->slots[slot_idx];
  const std::size_t partition = state->slot_partition[slot_idx];
  const bool is_timeout = !result.ok() && IsRpcTimeout(result.error);
  // Every answered attempt feeds the EWMA; a timeout feeds it too, at the
  // full timeout value — that *is* the observed cost of asking, and it is
  // what pushes a silently-dropping replica's EWMA up where the outlier
  // ejection can see it.
  if (result.ok() || is_timeout) {
    RecordReplicaLatency(
        partition, replica,
        MonotonicClock::Instance().NowMicros() - dispatched_at);
  }
  if (result.ok()) {
    if (!slot.completed.exchange(true, std::memory_order_acq_rel)) {
      slot.CancelHedgeTimer();
      // The winning attempt's wall time is this slot's contribution to the
      // fan-out's scan stage; the slowest such slot gated the merge.
      slot.attempt_micros =
          MonotonicClock::Instance().NowMicros() - dispatched_at;
      if (is_hedge) {
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        hedge_wins_total_->Increment();
        state->hedge_wins.fetch_add(1, std::memory_order_relaxed);
        slot.hedge_wait_micros =
            dispatched_at -
            slot.first_dispatched_at.load(std::memory_order_relaxed);
      }
      state->collector->Complete(slot_idx, std::move(result));
    }
    // A losing reply (slot already answered by the hedge or a racing
    // sibling) is dropped here; its latency sample was still recorded.
    slot.outstanding.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  if (qos::IsDeadlineExceeded(result.error)) {
    // Deadline death is not a replica fault: the budget is just as dead on
    // the sibling, and retrying timed-out work under overload only
    // amplifies it. Complete the slot with the error (no failover, no
    // partition_failures — the partition is healthy, the query is late).
    if (!slot.completed.exchange(true, std::memory_order_acq_rel)) {
      slot.CancelHedgeTimer();
      state->collector->Complete(slot_idx, std::move(result));
    }
    slot.outstanding.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  // Replica fault (NodeFailedError, RpcTimeoutError, scan failure): walk
  // the candidate list ("multiple copies for availability") by
  // re-dispatching from this completion callback — no thread waits, and the
  // other partitions keep collecting.
  if (is_timeout) {
    rpc_timeouts_.fetch_add(1, std::memory_order_relaxed);
    rpc_timeouts_total_->Increment();
  }
  {
    std::lock_guard lock(slot.error_mu);
    slot.last_error = result.error;
  }
  if (!slot.completed.load(std::memory_order_acquire)) {
    TryDispatchNext(state, slot_idx, AttemptKind::kFailover);
  }
  // Ordering matters: the failover dispatch (if any) bumped `outstanding`
  // before this decrement, so dropping to zero really means no attempt is
  // in flight and none can start — the candidate list is exhausted.
  if (slot.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      slot.next_candidate.load(std::memory_order_acquire) >=
          slot.candidates.size() &&
      !slot.completed.exchange(true, std::memory_order_acq_rel)) {
    slot.CancelHedgeTimer();
    partition_failures_.fetch_add(1, std::memory_order_relaxed);
    partition_failures_total_->Increment();
    std::exception_ptr error;
    {
      std::lock_guard lock(slot.error_mu);
      error = slot.last_error;
    }
    JDVS_LOG(kWarning) << node_.name() << ": partition " << partition
                       << " unavailable (" << DescribeException(error) << ")";
    state->collector->Complete(slot_idx,
                               Searcher::SearchResult::Fail(std::move(error)));
  }
}

// Final continuation: runs on the pool thread of whichever searcher
// delivered the last partition.
void Broker::FinishFanOut(std::shared_ptr<FanOutState> state,
                          std::vector<Searcher::SearchResult> slots) {
  // Too late to be useful: the blender would discard the answer anyway, so
  // skip the merge and report the deadline death from this tier.
  if (state->options.deadline.Expired(MonotonicClock::Instance())) {
    deadline_exceeded_->Increment();
    state->span.AddTag("deadline_exceeded", std::uint64_t{1});
    state->span.SetError("deadline exceeded");
    fanout_stage_->Record(state->watch.ElapsedMicros());
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    state->span.Finish();
    state->on_done(SearchResult::Fail(
        std::make_exception_ptr(qos::DeadlineExceededError(node_.name()))));
    return;
  }
  Reply reply;
  std::vector<std::vector<SearchHit>> partials;
  partials.reserve(slots.size());
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    if (slots[slot].ok()) {
      // Only a winning attempt completes a slot with a value.
      Searcher::ScanReply& scan = *slots[slot].value;
      const Slot& won = state->slots[slot];
      reply.slowest_attempt_micros =
          std::max(reply.slowest_attempt_micros, won.attempt_micros);
      reply.hedge_wait_micros =
          std::max(reply.hedge_wait_micros, won.hedge_wait_micros);
      reply.filter_micros = std::max(reply.filter_micros, scan.filter_micros);
      reply.io_micros = std::max(reply.io_micros, scan.io_micros);
      if (scan.tier_degraded) ++reply.tier_degraded;
      partials.push_back(std::move(scan.hits));
    } else {
      ++reply.partitions_failed;
      state->span.SetError(
          std::string("partition ") +
          std::to_string(state->slot_partition[slot]) +
          " unavailable: " + DescribeException(slots[slot].error));
    }
  }
  const std::uint64_t failovers =
      state->failovers.load(std::memory_order_relaxed);
  if (failovers > 0) state->span.AddTag("failovers", failovers);
  const std::uint64_t hedge_wins =
      state->hedge_wins.load(std::memory_order_relaxed);
  if (hedge_wins > 0) state->span.AddTag("hedge_wins", hedge_wins);
  // "The broker then combines the results from its subset of searchers."
  reply.hits = MergeHits(std::move(partials), state->k);
  reply.fanout_micros = state->watch.ElapsedMicros();
  fanout_stage_->Record(reply.fanout_micros);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  state->span.Finish();
  state->on_done(SearchResult::Ok(std::move(reply)));
}

}  // namespace jdvs
