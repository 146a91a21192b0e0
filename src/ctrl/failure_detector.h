// Heartbeat failure detector.
//
// Probes every watched replica over the simulated net fabric: each round
// dispatches a no-op Node::Call onto the replica's node, so a probe
// experiences exactly what a query would — network hops, queueing behind
// real work on a saturated pool, and NodeFailedError while the node's fail
// switch is set.
// The detector never reads Node::failed() directly; it only believes what
// the fabric tells it.
//
// Per-replica miss accounting drives the state machine in the shared
// ReplicaStateTable:
//
//   consecutive misses >= suspect_after  =>  UP -> SUSPECT
//   consecutive misses >= down_after     =>  SUSPECT -> DOWN
//   ack                                  =>  SUSPECT -> UP
//                                            DOWN -> UP (reinstate_on_ack,
//                                            the no-auto-recovery mode where
//                                            an operator revived the node)
//
// A probe that has not answered by the next round counts as a miss (slow
// node == suspect node); an explicit NodeFailedError also counts as a miss
// rather than an instant DOWN, so one transient blip cannot evict a
// replica. RECOVERING replicas belong to the recovery machinery and are not
// probed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "ctrl/replica_state.h"
#include "net/node.h"
#include "obs/registry.h"

namespace jdvs::ctrl {

struct FailureDetectorConfig {
  Micros heartbeat_period_micros = 15'000;
  // Consecutive missed heartbeats before UP -> SUSPECT / -> DOWN.
  int suspect_after_misses = 1;
  int down_after_misses = 3;
  // When true (the mode without automatic recovery), a heartbeat ack from a
  // DOWN replica reinstates it to UP directly. With auto-recovery the
  // controller owns the DOWN -> RECOVERING -> UP leg instead.
  bool reinstate_on_ack = true;
  // Per-probe RPC timeout; 0 = 2x the heartbeat period. Without it a probe
  // whose message the fabric drops would stay in flight forever and this
  // replica would never be probed again (the one-outstanding-probe rule),
  // wedging detection right when the network is at its worst.
  Micros probe_timeout_micros = 0;
  // Latency-outlier ejection (the gray-failure defense): a replica whose
  // response-time EWMA (ReplicaStateTable::RecordLatency, fed by brokers)
  // exceeds factor x the median EWMA of its serving peers is marked SUSPECT
  // even though its heartbeats keep acking — heartbeats measure liveness,
  // not usefulness. 0 = off. SUSPECT still serves; the broker's candidate
  // ordering just stops preferring it.
  double latency_outlier_factor = 0.0;
  // Floor on the ejection threshold so quiet clusters (median ~ tens of
  // microseconds) don't eject on noise.
  Micros latency_outlier_min_micros = 1'000;
  // An ejected replica re-enters when its EWMA drops below this fraction of
  // the ejection threshold (hysteresis against flapping at the boundary).
  double latency_reenter_fraction = 0.7;
};

class FailureDetector {
 public:
  struct Target {
    Node* node;
    std::size_t slot;  // this replica's slot in the state table
  };

  FailureDetector(std::vector<Target> targets, ReplicaStateTable& table,
                  const FailureDetectorConfig& config = {},
                  obs::Registry* registry = nullptr);
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  void Start();
  void Stop();

  std::uint64_t heartbeats_sent() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  // Replicas marked SUSPECT for latency (heartbeats passing) so far.
  std::uint64_t latency_ejections() const {
    return latency_ejections_.load(std::memory_order_relaxed);
  }

 private:
  // Probe outcome written by the node's pool thread, read by the detector
  // loop one round later.
  struct Probe {
    std::atomic<bool> in_flight{false};
    std::atomic<bool> acked{false};
    // Detector-thread private.
    int consecutive_misses = 0;
    bool dispatched = false;  // a probe has ever been sent to this replica
    // Currently ejected for latency; acks alone do not reinstate while set.
    bool latency_suspected = false;
  };

  void RunLoop();
  void ProbeRound();
  // Marks latency outliers SUSPECT / clears recovered ones, from the
  // replicas' EWMAs in the state table. Runs once per probe round.
  void EjectLatencyOutliers();

  std::vector<Target> targets_;
  ReplicaStateTable& table_;
  FailureDetectorConfig config_;
  // shared_ptr, not unique_ptr: the probe continuation runs on the target
  // node's pool and may still be queued there (e.g. behind a failed node's
  // backlog) when the detector is destroyed; the capture keeps the probe
  // alive until the last continuation finishes.
  std::vector<std::shared_ptr<Probe>> probes_;
  std::atomic<bool> stop_{false};
  std::thread loop_;
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> latency_ejections_{0};
  obs::Counter* heartbeats_total_;
  obs::Counter* misses_total_;
  obs::Counter* latency_ejections_total_;
};

}  // namespace jdvs::ctrl
