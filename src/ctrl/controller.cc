#include "ctrl/controller.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "index/snapshot.h"

namespace jdvs::ctrl {

ClusterController::ClusterController(VisualSearchCluster& cluster,
                                     const ControllerConfig& config)
    : cluster_(cluster),
      config_(config),
      table_(cluster.replica_states()),
      has_snapshot_(cluster.config().num_partitions, false),
      tiered_paths_(cluster.config().num_partitions *
                    cluster.config().replicas_per_partition) {
  // With auto-recovery the controller owns DOWN -> RECOVERING -> UP; without
  // it the detector reinstates a DOWN replica as soon as it acks again (the
  // operator-revive mode).
  FailureDetectorConfig dc = config_.detector;
  dc.reinstate_on_ack = !config_.auto_recover;
  std::vector<FailureDetector::Target> targets;
  const std::size_t partitions = cluster_.config().num_partitions;
  const std::size_t replicas = cluster_.config().replicas_per_partition;
  targets.reserve(partitions * replicas);
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t r = 0; r < replicas; ++r) {
      targets.push_back({&cluster_.searcher(p, r).node(),
                         cluster_.replica_slot(p, r)});
    }
  }
  detector_ = std::make_unique<FailureDetector>(std::move(targets), table_,
                                                dc, &cluster_.registry());
  obs::Registry& registry = cluster_.registry();
  recoveries_total_ = &registry.GetCounter("jdvs_ctrl_recoveries_total");
  quarantine_repairs_total_ =
      &registry.GetCounter("jdvs_ctrl_quarantine_repairs_total");
  catchup_total_ = &registry.GetCounter("jdvs_ctrl_catchup_replayed_total");
  rollouts_total_ = &registry.GetCounter("jdvs_ctrl_rollouts_total");
  qos_backoff_total_ =
      &registry.GetCounter("jdvs_qos_recovery_backoff_micros_total");
  rollout_done_gauge_ = &registry.GetGauge("jdvs_ctrl_rollout_replicas_done");
  recovery_micros_ = &registry.GetHistogram("jdvs_ctrl_recovery_micros");
}

ClusterController::~ClusterController() { Stop(); }

void ClusterController::Start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  detector_->Start();
  if (config_.auto_recover) {
    recovery_thread_ = std::thread([this] { RecoveryLoop(); });
  }
}

void ClusterController::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (recovery_thread_.joinable()) recovery_thread_.join();
  detector_->Stop();
  started_ = false;
}

double ClusterController::MeanRecoveryMicros() const {
  return recovery_micros_->Mean();
}

std::string ClusterController::SnapshotPath(std::size_t partition) const {
  return config_.snapshot_dir + "/partition-" + std::to_string(partition) +
         ".jdvsidx";
}

std::string ClusterController::TieredSnapshotPath(
    std::size_t partition, std::size_t replica,
    std::uint64_t generation) const {
  return config_.snapshot_dir + "/partition-" + std::to_string(partition) +
         "-replica-" + std::to_string(replica) + "-g" +
         std::to_string(generation) + ".jdvsidx";
}

bool ClusterController::HasBaseSnapshot(std::size_t partition) const {
  return !config_.snapshot_dir.empty() && has_snapshot_[partition];
}

void ClusterController::SnapshotAllPartitions() {
  if (config_.snapshot_dir.empty()) {
    throw std::invalid_argument(
        "SnapshotAllPartitions needs ControllerConfig::snapshot_dir");
  }
  std::lock_guard lock(ops_mu_);
  const std::size_t replicas = cluster_.config().replicas_per_partition;
  for (std::size_t p = 0; p < cluster_.config().num_partitions; ++p) {
    for (std::size_t r = 0; r < replicas; ++r) {
      Searcher& searcher = cluster_.searcher(p, r);
      if (!table_.Serving(cluster_.replica_slot(p, r)) ||
          !searcher.HasIndex()) {
        continue;
      }
      searcher.SaveIndexSnapshot(SnapshotPath(p));
      has_snapshot_[p] = true;
      break;
    }
  }
}

void ClusterController::RecoveryLoop() {
  const std::size_t replicas = cluster_.config().replicas_per_partition;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (std::size_t slot = 0; slot < table_.size(); ++slot) {
      if (stop_.load(std::memory_order_relaxed)) return;
      const ReplicaState state = table_.Get(slot);
      if (state == ReplicaState::kUp &&
          config_.quarantine_repair_threshold > 0) {
        // Disk-health leg: an UP replica whose tiered store has quarantined
        // too many corrupt lists is serving degraded answers — re-image it
        // from a healthy peer before the rot spreads query impact.
        Searcher& searcher =
            cluster_.searcher(slot / replicas, slot % replicas);
        if (searcher.tier_quarantined_lists() >=
            config_.quarantine_repair_threshold) {
          RepairReplica(slot / replicas, slot % replicas, slot);
        }
        continue;
      }
      if (state != ReplicaState::kDown) continue;
      RecoverReplica(slot / replicas, slot % replicas, slot);
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.recovery_poll_micros));
  }
}

void ClusterController::RecoverReplica(std::size_t partition,
                                       std::size_t replica, std::size_t slot) {
  std::lock_guard lock(ops_mu_);
  if (table_.Get(slot) != ReplicaState::kDown) return;  // raced a revive
  obs::Span span = cluster_.tracer().StartTrace("ctrl.recover", "controller");
  span.AddTag("replica", table_.name(slot));
  const Micros down_since = table_.down_since_micros(slot);
  table_.Set(slot, ReplicaState::kRecovering);
  Searcher& searcher = cluster_.searcher(partition, replica);
  try {
    searcher.StopConsuming();
    searcher.node().set_failed(false);  // the simulated process restart
    // Subscribe before installing: updates published during the restore
    // buffer in the subscription, and sequence dedup reconciles them with
    // the catch-up replay.
    std::shared_ptr<Subscription> subscription;
    if (cluster_.realtime_running()) {
      subscription = cluster_.SubscribeUpdates(partition);
    }
    // Recovery catch-up is background work: the pacer yields between replay
    // batches while the cluster is degraded, so reviving a replica never
    // deepens the overload it is reviving into.
    Micros backoff = 0;
    const std::size_t replayed =
        RestoreIndex(partition, replica, searcher,
                     [this, &backoff] { backoff += BackoffWhileDegraded(); });
    if (subscription) searcher.StartConsuming(std::move(subscription));
    table_.Set(slot, ReplicaState::kUp);
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    recoveries_total_->Increment();
    catchup_replayed_.fetch_add(replayed, std::memory_order_relaxed);
    catchup_total_->Increment(static_cast<std::uint64_t>(replayed));
    const Micros mttr =
        down_since > 0
            ? MonotonicClock::Instance().NowMicros() - down_since
            : 0;
    if (mttr > 0) recovery_micros_->Record(mttr);
    span.AddTag("replayed", static_cast<std::uint64_t>(replayed));
    span.AddTag("mttr_micros", static_cast<std::uint64_t>(mttr));
    if (backoff > 0) {
      span.AddTag("qos_backoff_micros", static_cast<std::uint64_t>(backoff));
    }
    JDVS_LOG(kInfo) << "ctrl: recovered " << table_.name(slot) << " ("
                    << replayed << " messages replayed, mttr " << mttr
                    << "us)";
  } catch (const std::exception& e) {
    // Leave the replica DOWN; the next loop iteration retries.
    table_.Set(slot, ReplicaState::kDown);
    span.SetError(e.what());
    JDVS_LOG(kWarning) << "ctrl: recovery of " << table_.name(slot)
                       << " failed: " << e.what();
  }
}

void ClusterController::RepairReplica(std::size_t partition,
                                      std::size_t replica, std::size_t slot) {
  std::lock_guard lock(ops_mu_);
  if (table_.Get(slot) != ReplicaState::kUp) return;  // raced an outage
  Searcher& searcher = cluster_.searcher(partition, replica);
  const std::uint64_t quarantined = searcher.tier_quarantined_lists();
  if (quarantined < config_.quarantine_repair_threshold) return;
  obs::Span span = cluster_.tracer().StartTrace("ctrl.repair", "controller");
  span.AddTag("replica", table_.name(slot));
  span.AddTag("quarantined_lists", quarantined);
  const Micros started = MonotonicClock::Instance().NowMicros();
  // Same drain-restore-rejoin choreography as recovery, minus the process
  // restart: the node never failed, its storage did. RECOVERING pulls the
  // replica out of broker rotation while the fresh image installs.
  table_.Set(slot, ReplicaState::kRecovering);
  try {
    searcher.StopConsuming();
    std::shared_ptr<Subscription> subscription;
    if (cluster_.realtime_running()) {
      subscription = cluster_.SubscribeUpdates(partition);
    }
    Micros backoff = 0;
    const std::size_t replayed =
        RestoreIndex(partition, replica, searcher,
                     [this, &backoff] { backoff += BackoffWhileDegraded(); });
    if (subscription) searcher.StartConsuming(std::move(subscription));
    table_.Set(slot, ReplicaState::kUp);
    quarantine_repairs_.fetch_add(1, std::memory_order_relaxed);
    quarantine_repairs_total_->Increment();
    catchup_replayed_.fetch_add(replayed, std::memory_order_relaxed);
    catchup_total_->Increment(static_cast<std::uint64_t>(replayed));
    const Micros mttr = MonotonicClock::Instance().NowMicros() - started;
    if (mttr > 0) recovery_micros_->Record(mttr);
    span.AddTag("replayed", static_cast<std::uint64_t>(replayed));
    span.AddTag("mttr_micros", static_cast<std::uint64_t>(mttr));
    if (backoff > 0) {
      span.AddTag("qos_backoff_micros", static_cast<std::uint64_t>(backoff));
    }
    JDVS_LOG(kInfo) << "ctrl: repaired " << table_.name(slot) << " ("
                    << quarantined << " quarantined lists, " << replayed
                    << " messages replayed, mttr " << mttr << "us)";
  } catch (const std::exception& e) {
    // The install failed, so the old (sick but partially serving) state may
    // be gone too; mark the replica DOWN and let the recovery leg own the
    // retry — it tolerates an index-less searcher.
    table_.Set(slot, ReplicaState::kDown);
    span.SetError(e.what());
    JDVS_LOG(kWarning) << "ctrl: repair of " << table_.name(slot)
                       << " failed: " << e.what();
  }
}

Micros ClusterController::BackoffWhileDegraded() {
  qos::LoadController* load = cluster_.load_controller();
  if (load == nullptr || config_.qos_backoff_at_level <= 0) return 0;
  Micros waited = 0;
  while (!stop_.load(std::memory_order_relaxed) &&
         waited < config_.qos_max_backoff_micros &&
         load->level() >= config_.qos_backoff_at_level) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.qos_backoff_slice_micros));
    waited += config_.qos_backoff_slice_micros;
    // If admission collapsed completely no query completions rotate the
    // controller's window; Poll() lets the level step down anyway.
    load->Poll();
  }
  if (waited > 0) {
    qos_backoff_total_->Increment(static_cast<std::uint64_t>(waited));
  }
  return waited;
}

std::size_t ClusterController::RestoreIndex(std::size_t partition,
                                            std::size_t replica,
                                            Searcher& searcher,
                                            const Searcher::CatchUpPacer& pacer) {
  bool installed = false;
  if (config_.tiered_snapshots && !config_.snapshot_dir.empty()) {
    // Tiered mode: write a fresh-generation image to a replica-private path
    // and map that. Never the file the sick replica still has flock'd, and
    // never a corrupt file re-served — a new inode per install. Source is a
    // serving sibling when one exists, else a catalog rebuild.
    const std::size_t slot = cluster_.replica_slot(partition, replica);
    const std::string path =
        TieredSnapshotPath(partition, replica, ++tiered_generation_);
    const std::size_t replicas = cluster_.config().replicas_per_partition;
    bool written = false;
    for (std::size_t r = 0; r < replicas && !written; ++r) {
      Searcher& sibling = cluster_.searcher(partition, r);
      if (&sibling == &searcher ||
          !table_.Serving(cluster_.replica_slot(partition, r)) ||
          !sibling.HasIndex()) {
        continue;
      }
      sibling.SaveIndexSnapshot(path);
      written = true;
    }
    if (!written) {
      const std::uint64_t hwm = cluster_.last_update_sequence();
      const auto index = cluster_.BuildPartitionIndex(partition);
      SaveIndexSnapshot(*index, path, hwm);
    }
    searcher.InstallFromTieredSnapshot(path, config_.tiered_resident_budget);
    // The replaced generation's mapping just died with the old index; its
    // file is garbage now.
    if (!tiered_paths_[slot].empty() && tiered_paths_[slot] != path) {
      std::remove(tiered_paths_[slot].c_str());
    }
    tiered_paths_[slot] = path;
    installed = true;
  }
  // Best available heap image next: the partition base snapshot, else a
  // snapshot taken from a serving sibling right now, else a full rebuild
  // from the catalog.
  if (!installed && HasBaseSnapshot(partition)) {
    searcher.InstallFromSnapshot(SnapshotPath(partition));
    installed = true;
  }
  if (!installed && !config_.snapshot_dir.empty()) {
    const std::size_t replicas = cluster_.config().replicas_per_partition;
    for (std::size_t r = 0; r < replicas; ++r) {
      Searcher& sibling = cluster_.searcher(partition, r);
      if (&sibling == &searcher ||
          !table_.Serving(cluster_.replica_slot(partition, r)) ||
          !sibling.HasIndex()) {
        continue;
      }
      sibling.SaveIndexSnapshot(SnapshotPath(partition));
      has_snapshot_[partition] = true;
      searcher.InstallFromSnapshot(SnapshotPath(partition));
      installed = true;
      break;
    }
  }
  if (!installed) {
    // No snapshot storage or no healthy source: rebuild. The catalog holds
    // every published update, so the fresh index is current through the
    // sequence captured here.
    const std::uint64_t hwm = cluster_.last_update_sequence();
    searcher.InstallIndex(cluster_.BuildPartitionIndex(partition), hwm);
  }
  if (!cluster_.realtime_running()) return 0;
  return searcher.CatchUpFromLog(cluster_.day_log(), pacer);
}

bool ClusterController::WaitForServingSibling(std::size_t partition,
                                              std::size_t replica,
                                              Micros timeout_micros) {
  const std::size_t replicas = cluster_.config().replicas_per_partition;
  const Micros deadline =
      MonotonicClock::Instance().NowMicros() + timeout_micros;
  for (;;) {
    for (std::size_t r = 0; r < replicas; ++r) {
      if (r == replica) continue;
      if (table_.Serving(cluster_.replica_slot(partition, r))) return true;
    }
    if (MonotonicClock::Instance().NowMicros() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

RolloutReport ClusterController::DeployFullIndex() {
  RolloutReport report;
  const Stopwatch watch(MonotonicClock::Instance());
  const std::size_t partitions = cluster_.config().num_partitions;
  const std::size_t replicas = cluster_.config().replicas_per_partition;
  report.partitions = partitions;
  report.base_sequence = cluster_.last_update_sequence();
  rollout_done_gauge_->Set(0);
  obs::Span span = cluster_.tracer().StartTrace("ctrl.deploy", "controller");
  span.AddTag("base_sequence", report.base_sequence);

  // Phase 1: build the new generation — one index per partition, snapshotted
  // at the shared base sequence. These files also become the fresh recovery
  // base images.
  if (config_.snapshot_dir.empty()) {
    throw std::invalid_argument(
        "DeployFullIndex needs ControllerConfig::snapshot_dir");
  }
  cluster_.TrainQuantizer();
  for (std::size_t p = 0; p < partitions; ++p) {
    auto index = cluster_.BuildPartitionIndex(p);
    SaveIndexSnapshot(*index, SnapshotPath(p), report.base_sequence);
    std::lock_guard lock(ops_mu_);
    has_snapshot_[p] = true;
  }

  // Phase 2: roll the new generation in, one replica at a time, never
  // draining a partition below one serving replica.
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::size_t slot = cluster_.replica_slot(p, r);
      if (replicas > 1) {
        const bool waited_ok =
            WaitForServingSibling(p, r, config_.rollout_drain_wait_micros);
        if (!waited_ok) {
          ++report.invariant_waits;
          JDVS_LOG(kWarning)
              << "ctrl: rollout proceeding on " << table_.name(slot)
              << " without a serving sibling (wait timed out)";
        }
      }
      std::lock_guard lock(ops_mu_);
      if (!table_.Serving(slot)) {
        // DOWN / RECOVERING replicas are the recovery path's to fix — it
        // will install the new base snapshot written above.
        ++report.replicas_skipped;
        continue;
      }
      table_.Set(slot, ReplicaState::kRecovering);  // drain from brokers
      Searcher& searcher = cluster_.searcher(p, r);
      searcher.StopConsuming();
      std::shared_ptr<Subscription> subscription;
      if (cluster_.realtime_running()) {
        subscription = cluster_.SubscribeUpdates(p);
      }
      searcher.InstallFromSnapshot(SnapshotPath(p));
      if (cluster_.realtime_running()) {
        report.catchup_replayed +=
            searcher.CatchUpFromLog(cluster_.day_log());
      }
      if (subscription) searcher.StartConsuming(std::move(subscription));
      table_.Set(slot, ReplicaState::kUp);
      ++report.replicas_updated;
      rollout_done_gauge_->Set(
          static_cast<std::int64_t>(report.replicas_updated));
    }
  }

  // The new snapshots cover everything through base_sequence; drop the
  // day-log prefix so catch-up replay stays proportional to the delta.
  cluster_.day_log().TruncateThrough(report.base_sequence);
  catchup_replayed_.fetch_add(report.catchup_replayed,
                              std::memory_order_relaxed);
  catchup_total_->Increment(
      static_cast<std::uint64_t>(report.catchup_replayed));
  rollouts_total_->Increment();
  report.elapsed_micros = watch.ElapsedMicros();
  span.AddTag("replicas_updated",
              static_cast<std::uint64_t>(report.replicas_updated));
  span.AddTag("catchup_replayed",
              static_cast<std::uint64_t>(report.catchup_replayed));
  JDVS_LOG(kInfo) << "ctrl: rollout complete — " << report.replicas_updated
                  << " replicas updated, " << report.catchup_replayed
                  << " delta messages replayed, base seq "
                  << report.base_sequence;
  return report;
}

}  // namespace jdvs::ctrl
