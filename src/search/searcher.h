// Searcher: one node of the bottom tier of Figure 10.
//
// "There is a searcher for each index data partition. A searcher is
// responsible for searching and updating the corresponding index partition"
// and "is also responsible for processing messages from the message queue
// and performs real time indexing" (Section 2.4).
//
// Threading: searches execute on the searcher's node pool (many readers);
// all index mutations — the message-queue consumer loop, directly injected
// updates, and full-index installs — serialize on an internal writer mutex,
// preserving the single-writer contract of IvfIndex. Searches never take
// that mutex: they grab the current index through an atomic shared_ptr, so
// a full-index install swaps the whole partition under live traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "index/ivf_index.h"
#include "index/realtime_indexer.h"
#include "mq/message_log.h"
#include "mq/topic_queue.h"
#include "net/node.h"
#include "net/rpc.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "qos/deadline.h"
#include "search/types.h"
#include "store/feature_db.h"
#include "tier/scrubber.h"

namespace jdvs {

class FaultInjector;

class Searcher {
 public:
  struct Config {
    std::size_t threads = 2;
    LatencyModel latency;
    std::uint64_t seed = 0;
    // Observability (null = process-global defaults). The registry receives
    // the shared scan stage histograms, message counter and real-time update
    // counter; the sink receives "searcher.scan" / "rt.apply" spans of
    // sampled traces.
    obs::Registry* registry = nullptr;
    obs::TraceSink* trace_sink = nullptr;
    // Deterministic storage-fault injection handed through to any tiered
    // store this searcher installs (chaos bench / disk-fault tests).
    FaultInjector* fault_injector = nullptr;
  };

  Searcher(std::string name, const Config& config, FeatureDb& features,
           PartitionFilter filter);
  ~Searcher();

  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  // Installs a (typically freshly full-built) index, atomically replacing
  // the current one under live searches. Retired real-time stats are folded
  // into the searcher totals. The two-argument form also resets the update
  // high-water mark to `update_hwm` (the last update sequence folded into
  // the new index); the one-argument form preserves the current mark.
  void InstallIndex(std::unique_ptr<IvfIndex> index);
  void InstallIndex(std::unique_ptr<IvfIndex> index, std::uint64_t update_hwm);

  bool HasIndex() const { return index_.load(std::memory_order_acquire) != nullptr; }

  // Persists the current index to a snapshot file (the weekly full-index
  // distribution artifact; index/snapshot.h), stamping this searcher's
  // update high-water mark into the header. Serializes against writers so
  // the snapshot plus mark are a consistent point-in-time image. Either
  // install below can serve the file.
  void SaveIndexSnapshot(const std::string& path) const;

  // Loads a snapshot to heap and installs it as the current index (how a
  // searcher receives a freshly distributed full index without rebuilding
  // locally). Adopts the snapshot's high-water mark, so a subsequent
  // CatchUpFromLog replays exactly the missing suffix.
  void InstallFromSnapshot(const std::string& path);

  // Tiered twin of InstallFromSnapshot: maps `path` and serves the
  // partition through a TieredListStore sized to `resident_budget_bytes`,
  // wiring in this searcher's registry and (when configured) fault
  // injector. The mapping holds a shared flock on `path` for the index's
  // lifetime, so the file must stay put until the next install swaps it
  // out.
  void InstallFromTieredSnapshot(const std::string& path,
                                 std::size_t resident_budget_bytes);

  // Currently quarantined payload lists of the installed tiered index
  // (0 when heap-resident / no index): the control plane's disk-health
  // signal — past a threshold the controller re-installs this replica's
  // snapshot from a healthy peer.
  std::uint64_t tier_quarantined_lists() const;

  // Background integrity scrub over the installed tiered store (no-op
  // slices while the index is heap-resident). The provider re-resolves the
  // store every slice, so controller repairs that swap the index are safe.
  void StartTierScrub(const TierScrubConfig& config);
  void StopTierScrub();
  const TierScrubber* tier_scrubber() const { return scrubber_.get(); }

  // Bench/chaos hook: drop the tiered store's residency + verification
  // state, as if the page cache went cold — corruption written to the file
  // at rest is only observable through a re-fault.
  void DropTierResidency();

  // Simulated hard failure: flips the node's fail switch, stops the
  // consumer and discards the in-memory index and high-water mark — the
  // state a freshly restarted process would be in. Recovery is
  // InstallFromSnapshot + CatchUpFromLog + StartConsuming, driven by the
  // control plane.
  void Crash();

  // Replays the day log's suffix past the current high-water mark (already
  // applied messages are skipped by sequence). Returns the number of
  // messages replayed. The recovery catch-up step: bring a snapshot-restored
  // index up to date with everything published while the replica was down.
  // When `pacer` is set it is invoked every few dozen messages so the caller
  // can yield to foreground traffic (QoS: recovery is background work).
  using CatchUpPacer = std::function<void()>;
  std::size_t CatchUpFromLog(const MessageLog& log,
                             const CatchUpPacer& pacer = {});

  // Remote search: runs on this searcher's node. Returns "the top k most
  // similar images" of this partition, narrowed by `options.filter` when it
  // is non-empty (hybrid search: the filter is pushed down into the index
  // scan). When `options.parent` is a sampled trace context, the scan
  // records a "searcher.scan" child span.
  std::future<std::vector<SearchHit>> SearchAsync(FeatureVector query,
                                                  std::size_t k,
                                                  SearchOptions options = {});

  // Continuation-passing variant the broker drives: the partial result (or
  // the failure, e.g. NodeFailedError while this node is down) is delivered
  // to `on_done` on this searcher's pool thread. The caller's thread only
  // dispatches — it never blocks on the scan. The deadline is re-checked on
  // this searcher's pool thread before the scan runs: work still queued when
  // the budget dies fails fast with DeadlineExceededError instead of
  // scanning for a caller that already gave up.
  //
  // `rpc_timeout_micros` (> 0) bounds this one call at the RPC layer: if no
  // reply lands in time — the fabric dropped a message, or the scan is stuck
  // behind a backlog — `on_done` fires with RpcTimeoutError instead of
  // never. A late real reply is then suppressed, not double-delivered, and
  // its scan accounting goes with it: everything the scan reports travels
  // in its own ScanReply, so a scan that outlives its caller's interest
  // touches no caller state.
  //
  // ScanReply carries the partition's top k, packed as the index
  // materialized it, plus this scan's accounting,
  // which the broker folds over the attempts that won their slots:
  // `filter_micros` is the cost of materializing the filter bitmap (0 for
  // an unfiltered query) — the blender's "searcher_filter" flight stage;
  // `io_micros` is the cold-list fault time of a tiered partition (0 when
  // RAM-resident) — its "searcher_io" stage; `tier_degraded` is set iff the
  // scan skipped quarantined lists — the integrity rung of the degradation
  // ladder (results are correct but drawn from fewer lists than requested).
  struct ScanReply {
    HitList hits;
    Micros filter_micros = 0;
    Micros io_micros = 0;
    bool tier_degraded = false;
  };
  using SearchResult = AsyncResult<ScanReply>;
  using SearchCallback = std::function<void(SearchResult)>;
  void SearchAsync(FeatureVector query, std::size_t k, SearchOptions options,
                   SearchCallback on_done, Micros rpc_timeout_micros = 0);

  // In-process search, bypassing the node: the installed index's Search.
  // SearchAsync's scan runs the same index call, keeping the packed list.
  std::vector<SearchHit> SearchLocal(
      FeatureView query, std::size_t k,
      const IvfSearchOptions& options = {}) const;
  // Positional form kept for the repository benchmark: conjoins
  // WithCategory(category) to `filter` unless category is kNoCategoryFilter.
  std::vector<SearchHit> SearchLocal(FeatureView query, std::size_t k,
                                     std::size_t nprobe, CategoryId category,
                                     const FilterExpression& filter,
                                     FilterScanStats* stats) const;
  std::vector<SearchHit> SearchExhaustiveLocal(FeatureView query,
                                               std::size_t k) const;
  // Brute-force filtered ground truth over this partition.
  std::vector<SearchHit> SearchExhaustiveLocal(
      FeatureView query, std::size_t k, const FilterExpression& filter) const;

  // Starts the message-queue consumer loop on a dedicated thread, reading
  // this partition's update topic.
  void StartConsuming(std::shared_ptr<Subscription> subscription);
  // Stops the consumer (closes the subscription and joins the thread).
  void StopConsuming();

  // Applies one update synchronously (benches drive the update path without
  // a queue). Thread-safe against other writers. Returns false when the
  // message was skipped — either no index is installed yet, or its sequence
  // is at or below the high-water mark (a duplicate of an already-applied
  // update, e.g. buffered by a fresh subscription during catch-up replay).
  bool ApplyUpdate(const ProductUpdateMessage& message);

  // Notification hook fired (outside all locks) after every consumed
  // message, from both the consumer loop and catch-up replay — so a drain
  // waiter can park on a condition variable instead of sleep-polling
  // messages_consumed(). Set once during cluster wiring, before the first
  // StartConsuming; may be empty.
  using ProgressListener = std::function<void()>;
  void SetProgressListener(ProgressListener listener) {
    progress_listener_ = std::move(listener);
  }

  Node& node() { return node_; }
  const std::string& name() const { return node_.name(); }
  const PartitionFilter& partition_filter() const { return filter_; }

  // Cumulative real-time indexing stats (including retired indexes).
  RealTimeIndexerCounters update_counters() const;
  // Snapshot of cumulative update latency.
  void MergeUpdateLatencyInto(Histogram& out) const;
  IvfIndexStats index_stats() const;
  // statusz "tier" section body for this partition: residency-cache state of
  // the installed index's TieredListStore; writes nothing when the index is
  // RAM-resident (or not installed).
  void RenderTierStatus(std::ostream& os) const;
  // Published messages this searcher has accounted for. A message routed to
  // this partition counts once the consumer has applied (or deduped) it; any
  // other message counts when it is published (CountUnrouted). Catch-up
  // replay counts every message it visits. So the count reaches the
  // cluster's updates_published() once every message routed here is
  // applied, and not before.
  std::uint64_t messages_consumed() const {
    return messages_consumed_.load(std::memory_order_relaxed);
  }
  // Counts one published message that was not routed to this partition: no
  // image of its product can live here, so there is nothing to apply. The
  // publisher calls this; it fires no progress listener.
  void CountUnrouted() {
    messages_consumed_.fetch_add(1, std::memory_order_relaxed);
    consumed_total_->Increment();
  }
  // Highest applied update sequence (the recovery high-water mark): the
  // last message routed to this partition and applied here, or the last
  // one catch-up replay visited. Messages routed elsewhere do not move it,
  // so it can sit below the day log's last sequence; replay past it passes
  // those messages through the partition filter as no-ops. 0 means no
  // sequenced update has been applied since the last install/crash.
  std::uint64_t applied_sequence() const {
    return applied_sequence_.load(std::memory_order_relaxed);
  }

 private:
  // The installed index; throws when none is.
  std::shared_ptr<IvfIndex> CurrentIndex() const;
  void ConsumeLoop(std::shared_ptr<Subscription> subscription);
  // Teardown body shared by StopConsuming/StartConsuming; caller must hold
  // consumer_mu_.
  void StopConsumingLocked();

  Node node_;
  FeatureDb& features_;
  PartitionFilter filter_;
  std::uint64_t seed_;
  obs::Registry* registry_;
  obs::TraceSink* trace_sink_;
  FaultInjector* fault_injector_;
  Histogram* scan_stage_;         // shared jdvs_stage_micros{stage="searcher_scan"}
  Histogram* filter_stage_;       // shared jdvs_stage_micros{stage="searcher_filter"}
  Histogram* io_stage_;           // shared jdvs_stage_micros{stage="searcher_io"}
  // Hybrid-filter observability (filtered queries only).
  Histogram* filter_selectivity_bp_;     // jdvs_filter_selectivity_bp
  obs::Counter* filter_pre_total_;       // jdvs_filter_strategy_total{strategy=pre}
  obs::Counter* filter_post_total_;      // jdvs_filter_strategy_total{strategy=post}
  obs::Counter* filter_blocks_skipped_;  // jdvs_filter_blocks_skipped_total
  obs::Counter* filter_widened_;         // jdvs_filter_widened_nprobe_total
  obs::Counter* consumed_total_;  // mirrors messages_consumed_
  obs::Counter* deduped_total_;   // duplicate updates skipped by sequence
  obs::Counter* deadline_exceeded_;  // jdvs_qos_deadline_exceeded_total{tier=searcher}

  std::atomic<std::shared_ptr<IvfIndex>> index_{nullptr};
  mutable std::mutex writer_mu_;              // serializes all mutations
  std::unique_ptr<RealTimeIndexer> indexer_;  // guarded by writer_mu_
  RealTimeIndexerCounters retired_counters_;  // guarded by writer_mu_
  Histogram retired_latency_;                 // guarded by writer_mu_

  // Consumer lifecycle is multi-caller since the control plane: an external
  // Crash() can race the controller's recovery thread, so start/stop
  // serialize here. ConsumeLoop itself never takes this mutex (it only uses
  // writer_mu_ via ApplyUpdate), so joining the thread under it is safe.
  // Scrubber lifecycle parallels the consumer's: start/stop may race the
  // control plane, so they serialize on their own mutex. The scrubber holds
  // only a provider closure over `this`, never a raw store pointer.
  std::mutex scrub_mu_;
  std::unique_ptr<TierScrubber> scrubber_;  // guarded by scrub_mu_

  std::mutex consumer_mu_;
  std::shared_ptr<Subscription> subscription_;  // guarded by consumer_mu_
  std::thread consumer_;                        // guarded by consumer_mu_
  std::atomic<std::uint64_t> messages_consumed_{0};
  // Advanced under writer_mu_; read lock-free by the control plane.
  std::atomic<std::uint64_t> applied_sequence_{0};
  // Set before the first StartConsuming, then only read (no lock).
  ProgressListener progress_listener_;
};

}  // namespace jdvs
