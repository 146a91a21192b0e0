// Cluster control plane: automatic replica recovery and rolling full-index
// deployment on top of the heartbeat failure detector.
//
// The controller owns the DOWN -> RECOVERING -> UP leg of the replica state
// machine. Its recovery loop watches the shared ReplicaStateTable; when the
// detector declares a replica DOWN the controller revives it without
// operator action:
//
//   1. clear the node's fail switch (the "process restart"),
//   2. subscribe afresh to the partition's update topic (buffers the new
//      updates routed to the partition while the index restores),
//   3. install an index — the partition's base snapshot when one exists,
//      else a snapshot taken from a serving sibling replica, else a fresh
//      build from the catalog,
//   4. replay the day log's suffix past the installed high-water mark
//      (catch-up: everything published while the replica was down),
//   5. start the consumer on the fresh subscription (sequence dedup absorbs
//      the overlap between replay and the subscription's buffered backlog),
//   6. mark the replica UP — brokers resume dispatching to it.
//
// DeployFullIndex is the weekly full-index rollout (Figure 2 cadence) done
// without downtime: build + snapshot every partition at one base sequence,
// then swap replicas in one at a time, never draining a partition below one
// serving replica, catching each replica up over the real-time delta before
// it rejoins. Afterwards the day log is truncated through the base sequence
// — the new snapshots cover it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "ctrl/failure_detector.h"
#include "ctrl/replica_state.h"
#include "obs/registry.h"
#include "search/cluster_builder.h"

namespace jdvs::ctrl {

struct ControllerConfig {
  FailureDetectorConfig detector;
  // Revive DOWN replicas automatically. When false the controller only
  // detects (the detector reinstates on ack, the operator-revive mode).
  bool auto_recover = true;
  // Directory for partition base snapshots (SnapshotAllPartitions /
  // DeployFullIndex write them; recovery prefers them). Empty = no snapshot
  // storage: recovery rebuilds the partition index from the catalog.
  std::string snapshot_dir;
  // Recovery loop poll period.
  Micros recovery_poll_micros = 5'000;
  // DeployFullIndex: how long to wait for a sibling replica to come back to
  // serving before swapping the next one anyway (invariant wait timeout).
  Micros rollout_drain_wait_micros = 120'000'000;
  // QoS: while the cluster's degradation level (see
  // VisualSearchCluster::load_controller) is at or above this, recovery
  // catch-up replay pauses between batches — background work yields to
  // foreground queries. 0 disables the backoff; it is also inert when the
  // cluster has no load controller.
  int qos_backoff_at_level = 1;
  // Backoff sleep granularity, and the hard bound per pacer call so a
  // permanently-degraded cluster still finishes recovering.
  Micros qos_backoff_slice_micros = 5'000;
  Micros qos_max_backoff_micros = 500'000;

  // ---- Disk-integrity repair (tiered replicas; defaults = off) ----
  // When a serving replica's tiered index holds at least this many
  // quarantined (corrupt / fault-prone) payload lists, the recovery loop
  // treats the replica's storage as unhealthy and re-installs its index
  // from a healthy peer — clearing the quarantine with fresh bytes rather
  // than serving degraded answers forever. 0 disables the repair path.
  std::size_t quarantine_repair_threshold = 0;
  // Repair (and recovery) installs tiered (mmap) snapshots instead of heap
  // images: each install writes a fresh generation file per replica under
  // snapshot_dir — never the file the sick replica still has mapped, and
  // never a re-serve of corrupt bytes — and maps it with this residency
  // budget. Requires a non-empty snapshot_dir.
  bool tiered_snapshots = false;
  std::size_t tiered_resident_budget = 0;
};

// Result of one DeployFullIndex run.
struct RolloutReport {
  std::size_t partitions = 0;
  // Replicas swapped to the new index (non-serving replicas are skipped;
  // the recovery path installs the new base snapshot for them instead).
  std::size_t replicas_updated = 0;
  std::size_t replicas_skipped = 0;
  // Update sequence the new indexes are based on; the day log is truncated
  // through it when the rollout completes.
  std::uint64_t base_sequence = 0;
  // Real-time delta messages replayed across all swapped replicas.
  std::size_t catchup_replayed = 0;
  // Times the rollout had to wait for the >=1-serving-replica invariant.
  std::size_t invariant_waits = 0;
  Micros elapsed_micros = 0;
};

class ClusterController {
 public:
  ClusterController(VisualSearchCluster& cluster,
                    const ControllerConfig& config = {});
  ~ClusterController();

  ClusterController(const ClusterController&) = delete;
  ClusterController& operator=(const ClusterController&) = delete;

  // Starts the failure detector and (when auto_recover) the recovery loop.
  void Start();
  void Stop();

  // Writes one base snapshot per partition (from the first serving replica)
  // into snapshot_dir, giving recovery a warm starting image. Requires a
  // non-empty snapshot_dir.
  void SnapshotAllPartitions();

  // Full-index rollout under live traffic: train, build + snapshot every
  // partition, then swap replicas in one at a time (details above). Safe to
  // call while the detector and recovery loop run.
  RolloutReport DeployFullIndex();

  FailureDetector& detector() { return *detector_; }

  std::uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }
  // Serving replicas re-imaged because quarantine crossed the threshold.
  std::uint64_t quarantine_repairs() const {
    return quarantine_repairs_.load(std::memory_order_relaxed);
  }
  std::uint64_t catchup_replayed() const {
    return catchup_replayed_.load(std::memory_order_relaxed);
  }
  // Mean time-to-recovery over completed auto-recoveries, in micros.
  double MeanRecoveryMicros() const;

 private:
  void RecoveryLoop();
  // Revives one DOWN replica (step sequence in the header comment).
  void RecoverReplica(std::size_t partition, std::size_t replica,
                      std::size_t slot);
  // Re-images one UP-but-storage-sick replica (quarantine threshold
  // crossed): drain from brokers, install a fresh image from a healthy
  // peer, catch up, rejoin. The quarantine clears because the new store
  // starts unpoisoned over verified bytes.
  void RepairReplica(std::size_t partition, std::size_t replica,
                     std::size_t slot);
  // Installs the best available index on a recovering searcher and returns
  // the catch-up replay count; `pacer` (may be empty) is handed to the
  // catch-up replay so it can yield while the cluster is degraded.
  std::size_t RestoreIndex(std::size_t partition, std::size_t replica,
                           Searcher& searcher,
                           const Searcher::CatchUpPacer& pacer = {});
  // Sleeps in bounded slices while the cluster's degradation level is at or
  // above qos_backoff_at_level; returns the time spent backing off.
  Micros BackoffWhileDegraded();
  std::string SnapshotPath(std::size_t partition) const;
  // Replica-private, generation-suffixed tiered image path. A fresh inode
  // per install: SaveIndexSnapshot takes an exclusive flock and the sick
  // replica still holds a shared one on its current file, so reusing a
  // path would deadlock-or-fail; a new generation never conflicts.
  std::string TieredSnapshotPath(std::size_t partition, std::size_t replica,
                                 std::uint64_t generation) const;
  bool HasBaseSnapshot(std::size_t partition) const;
  // Blocks until some *other* replica of `partition` is serving (or the
  // timeout passes). Returns true when the invariant holds.
  bool WaitForServingSibling(std::size_t partition, std::size_t replica,
                             Micros timeout_micros);

  VisualSearchCluster& cluster_;
  ControllerConfig config_;
  ReplicaStateTable& table_;
  std::unique_ptr<FailureDetector> detector_;

  // Serializes replica-mutating operations (recovery loop vs. rollout), so
  // the two never touch the same searcher concurrently.
  std::mutex ops_mu_;
  // Guarded by ops_mu_: partitions with a base snapshot on disk.
  std::vector<bool> has_snapshot_;
  // Guarded by ops_mu_: tiered-install bookkeeping — next generation number
  // and, per replica slot, the path of the currently installed generation
  // (unlinked once a newer one replaces it).
  std::uint64_t tiered_generation_ = 0;
  std::vector<std::string> tiered_paths_;

  std::atomic<bool> stop_{false};
  std::thread recovery_thread_;
  bool started_ = false;

  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> quarantine_repairs_{0};
  std::atomic<std::uint64_t> catchup_replayed_{0};
  obs::Counter* recoveries_total_;
  obs::Counter* quarantine_repairs_total_;
  obs::Counter* catchup_total_;
  obs::Counter* rollouts_total_;
  obs::Counter* qos_backoff_total_;  // jdvs_qos_recovery_backoff_micros_total
  obs::Gauge* rollout_done_gauge_;
  Histogram* recovery_micros_;  // MTTR: DOWN -> back to UP
};

}  // namespace jdvs::ctrl
