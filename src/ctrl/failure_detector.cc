#include "ctrl/failure_detector.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/logging.h"

namespace jdvs::ctrl {

FailureDetector::FailureDetector(std::vector<Target> targets,
                                 ReplicaStateTable& table,
                                 const FailureDetectorConfig& config,
                                 obs::Registry* registry)
    : targets_(std::move(targets)), table_(table), config_(config) {
  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::Default();
  heartbeats_total_ = &reg.GetCounter("jdvs_ctrl_heartbeats_total");
  misses_total_ = &reg.GetCounter("jdvs_ctrl_heartbeat_misses_total");
  latency_ejections_total_ =
      &reg.GetCounter("jdvs_ctrl_latency_ejections_total");
  probes_.reserve(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    probes_.push_back(std::make_shared<Probe>());
  }
}

FailureDetector::~FailureDetector() { Stop(); }

void FailureDetector::Start() {
  if (loop_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  loop_ = std::thread([this] { RunLoop(); });
}

void FailureDetector::Stop() {
  stop_.store(true, std::memory_order_release);
  if (loop_.joinable()) loop_.join();
}

void FailureDetector::RunLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    ProbeRound();
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.heartbeat_period_micros));
  }
}

void FailureDetector::EjectLatencyOutliers() {
  if (config_.latency_outlier_factor <= 0.0) return;
  std::vector<Micros> ewmas;
  ewmas.reserve(targets_.size());
  for (const Target& target : targets_) {
    const ReplicaState state = table_.Get(target.slot);
    if (state != ReplicaState::kUp && state != ReplicaState::kSuspect) continue;
    const Micros ewma = table_.latency_ewma_micros(target.slot);
    if (ewma > 0) ewmas.push_back(ewma);
  }
  // A median over fewer than 3 samples is just another replica's latency;
  // wait until enough of the tier has been measured.
  if (ewmas.size() < 3) return;
  auto mid = ewmas.begin() + static_cast<std::ptrdiff_t>(ewmas.size() / 2);
  std::nth_element(ewmas.begin(), mid, ewmas.end());
  const double threshold =
      std::max(static_cast<double>(config_.latency_outlier_min_micros),
               config_.latency_outlier_factor * static_cast<double>(*mid));
  const double reenter = threshold * config_.latency_reenter_fraction;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const Target& target = targets_[i];
    Probe& probe = *probes_[i];
    const ReplicaState state = table_.Get(target.slot);
    if (state != ReplicaState::kUp && state != ReplicaState::kSuspect) {
      // DOWN/RECOVERING belongs to the miss machinery / controller; the
      // latency verdict is stale by the time it comes back.
      probe.latency_suspected = false;
      continue;
    }
    const auto ewma = static_cast<double>(table_.latency_ewma_micros(target.slot));
    if (!probe.latency_suspected && ewma > threshold) {
      probe.latency_suspected = true;
      if (state == ReplicaState::kUp) {
        // The gray-failure transition: heartbeats are fine, answers are
        // not. SUSPECT keeps it serving but deprioritized in the broker's
        // candidate order.
        latency_ejections_.fetch_add(1, std::memory_order_relaxed);
        latency_ejections_total_->Increment();
        JDVS_LOG(kWarning) << "ctrl: " << target.node->name()
                           << " SUSPECT as latency outlier (ewma "
                           << static_cast<Micros>(ewma) << "us > "
                           << static_cast<Micros>(threshold) << "us)";
        table_.Set(target.slot, ReplicaState::kSuspect);
      }
    } else if (probe.latency_suspected && ewma < reenter) {
      // Recovered below the hysteresis band; the next ack reinstates UP.
      probe.latency_suspected = false;
    }
  }
}

void FailureDetector::ProbeRound() {
  // Probes carry the control plane's identity on fault-injection links, so
  // chaos scenarios can fault (or exempt) the heartbeat path explicitly.
  RpcSourceScope source("ctrl");
  CallOptions probe_call;
  probe_call.timeout_micros = config_.probe_timeout_micros > 0
                                  ? config_.probe_timeout_micros
                                  : 2 * config_.heartbeat_period_micros;
  EjectLatencyOutliers();
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const Target& target = targets_[i];
    Probe& probe = *probes_[i];
    if (table_.Get(target.slot) == ReplicaState::kRecovering) {
      // Recovery owns this replica; reset accounting so it re-enters the
      // detector with a clean slate once it is UP again.
      probe.consecutive_misses = 0;
      probe.acked.store(false, std::memory_order_relaxed);
      continue;
    }

    // Harvest the previous round's outcome first.
    if (probe.acked.exchange(false, std::memory_order_acq_rel)) {
      probe.consecutive_misses = 0;
      const ReplicaState state = table_.Get(target.slot);
      // An ack clears heartbeat suspicion, but not a latency ejection: the
      // whole point of the gray-failure defense is that this replica acks
      // fine and answers slow. Reinstatement waits for the EWMA to recover.
      if ((state == ReplicaState::kSuspect && !probe.latency_suspected) ||
          (state == ReplicaState::kDown && config_.reinstate_on_ack)) {
        table_.Set(target.slot, ReplicaState::kUp);
      }
    } else if (probe.in_flight.load(std::memory_order_acquire)) {
      // Still unanswered after a full period: a slow node is a suspect node.
      ++probe.consecutive_misses;
      misses_.fetch_add(1, std::memory_order_relaxed);
      misses_total_->Increment();
    } else if (probe.dispatched) {
      // The previous probe completed with an error (NodeFailedError while
      // the fail switch is set): the fabric answered "dead".
      ++probe.consecutive_misses;
      misses_.fetch_add(1, std::memory_order_relaxed);
      misses_total_->Increment();
    }

    const ReplicaState state = table_.Get(target.slot);
    if (state != ReplicaState::kDown) {
      if (probe.consecutive_misses >= config_.down_after_misses) {
        JDVS_LOG(kWarning) << "ctrl: " << target.node->name() << " DOWN after "
                           << probe.consecutive_misses << " missed heartbeats";
        table_.Set(target.slot, ReplicaState::kDown);
      } else if (probe.consecutive_misses >= config_.suspect_after_misses &&
                 state == ReplicaState::kUp) {
        table_.Set(target.slot, ReplicaState::kSuspect);
      }
    }

    // Dispatch this round's probe unless the previous one is still stuck in
    // the node's queue (one outstanding probe per replica, like a heartbeat
    // connection).
    if (!probe.in_flight.exchange(true, std::memory_order_acq_rel)) {
      probe.dispatched = true;
      heartbeats_.fetch_add(1, std::memory_order_relaxed);
      heartbeats_total_->Increment();
      const std::shared_ptr<Probe> p = probes_[i];
      // The timeout guarantees in_flight always clears: a probe whose
      // message the fabric drops comes back as RpcTimeoutError (a miss)
      // instead of wedging this replica's probing forever.
      target.node->Call(
          probe_call, [](obs::Span&) {},
          [p](AsyncResult<void> result) {
            if (result.ok()) {
              p->acked.store(true, std::memory_order_release);
            }
            p->in_flight.store(false, std::memory_order_release);
          });
    }
  }
}

}  // namespace jdvs::ctrl
