// Deterministic, seeded network fault injection for the simulated RPC
// fabric.
//
// The only failure the fabric used to model was a binary crash switch on
// Node. Production gray failures look nothing like that: messages get lost,
// replies get duplicated, links partition in one direction, and a "limping"
// node answers every heartbeat while serving queries 50x slow. A
// FaultInjector attached to a Node (Node::set_fault_injector) intercepts
// every Node::Call and decides, per message, whether to drop the request,
// drop or duplicate the reply, or stretch the hop latency — per directed
// link (from caller to callee), controllable at runtime from benches and
// tests.
//
// Decisions are deterministic in (seed, link rule, message ordinal): the
// n-th message on a link draws its fate by hashing, not from a shared RNG,
// so the same seed replays the same drop/duplication schedule regardless of
// thread interleaving. That is what makes chaos benches reproducible
// (--seed) and fault tests debuggable.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/clock.h"

namespace jdvs {

// Fault profile of one directed link (or one callee, with the wildcard
// source "*"). Defaults are a clean link.
struct LinkFaults {
  // Probability the request is lost in transit: the callee never runs it,
  // the caller hears nothing (only a timeout can break the silence).
  double drop_probability = 0.0;
  // Probability the work runs but the reply is lost on the way back —
  // indistinguishable from a dropped request to the caller, but the callee
  // did the work (and applied its side effects).
  double reply_drop_probability = 0.0;
  // Probability the reply is delivered twice (retransmission artifact);
  // callers must suppress the duplicate or double-complete their fan-in.
  double duplicate_probability = 0.0;
  // Gray failure: scales the sampled hop latency (50.0 = limping node that
  // still answers everything, just 50x late).
  double latency_multiplier = 1.0;
  // Flat extra delay per hop, for links whose latency model is zero.
  Micros added_latency_micros = 0;
  // Directed partition: every message from `from` to `to` is dropped.
  bool partitioned = false;

  bool IsClean() const {
    return drop_probability <= 0.0 && reply_drop_probability <= 0.0 &&
           duplicate_probability <= 0.0 && latency_multiplier == 1.0 &&
           added_latency_micros <= 0 && !partitioned;
  }
};

// Storage fault profile of one node's tiered store. Fault-ins on that node
// consult DecideStorage() before touching the mapping; the store converts a
// `fail` into quarantine + skip, never a crash.
struct StorageFaults {
  // One-shot: the next fault-in on this node fails (consumed on first draw).
  bool fail_next_fault_in = false;
  // Probability an individual fault-in fails (flaky disk / lost pages).
  double fault_in_error_probability = 0.0;
  // Flat extra delay per fault-in (degraded disk); charged to the query's
  // io budget like real fault time.
  Micros fault_in_delay_micros = 0;

  bool IsClean() const {
    return !fail_next_fault_in && fault_in_error_probability <= 0.0 &&
           fault_in_delay_micros <= 0;
  }
};

class FaultInjector {
 public:
  // The fate of one message, computed at dispatch on the caller's side.
  struct Decision {
    bool drop_request = false;
    bool drop_reply = false;
    bool duplicate_reply = false;
    double latency_multiplier = 1.0;
    Micros added_latency_micros = 0;

    bool IsClean() const {
      return !drop_request && !drop_reply && !duplicate_reply &&
             latency_multiplier == 1.0 && added_latency_micros <= 0;
    }
  };

  explicit FaultInjector(std::uint64_t seed = 0) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs the fault profile of the directed link `from` -> `to`. An
  // exact (from, to) rule overrides a wildcard one; use SetNode for "every
  // caller of `to`". Replacing a rule resets its message ordinal, so the
  // schedule restarts from message 0.
  void SetLink(const std::string& from, const std::string& to,
               const LinkFaults& faults);
  // Faults every message into `to` regardless of caller (wildcard source).
  void SetNode(const std::string& to, const LinkFaults& faults);
  // Directed partition helpers: from -/-> to (replies included — the whole
  // message is dropped).
  void Partition(const std::string& from, const std::string& to);
  // Removes the (from, to) rule; HealNode removes the wildcard rule for
  // `to`. Exact rules installed separately must be healed separately.
  void Heal(const std::string& from, const std::string& to);
  void HealNode(const std::string& to);
  void Clear();

  // The fate of one storage fault-in on a node.
  struct StorageDecision {
    bool fail = false;
    Micros delay_micros = 0;
  };

  // Decides the n-th message's fate on the matching link. Clean (and cheap:
  // one map lookup) when no rule matches.
  Decision Decide(const std::string& from, const std::string& to);

  // Installs / removes the storage fault profile of `node`'s tiered store.
  // Replacing a rule resets its fault-in ordinal (and re-arms
  // fail_next_fault_in).
  void SetStorage(const std::string& node, const StorageFaults& faults);
  void HealStorage(const std::string& node);

  // Decides the n-th fault-in's fate on `node`. Deterministic in
  // (seed, node, ordinal), same discipline as Decide().
  StorageDecision DecideStorage(const std::string& node);

  // Seeded at-rest corruption: flips one deterministically chosen bit inside
  // [offset, offset+length) of `path` (bit index = Mix64(seed) mod length*8).
  // Returns false when the file cannot be opened or is too short. This is a
  // file-level chaos tool, not tied to an injector instance.
  static bool FlipBit(const std::string& path, std::uint64_t offset,
                      std::uint64_t length, std::uint64_t seed);

  // ---- Counters (what the chaos actually did, for bench reports) ----
  std::uint64_t requests_dropped() const {
    return requests_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t replies_dropped() const {
    return replies_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t replies_duplicated() const {
    return replies_duplicated_.load(std::memory_order_relaxed);
  }
  // Duplicate deliveries a caller-side OnceCallback guard swallowed —
  // proof the suppression worked (bumped by the delivery path in Node).
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }
  void OnDuplicateSuppressed() {
    duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnReplyDropped() {
    replies_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  // Fault-ins failed by DecideStorage (bench report: injected disk faults).
  std::uint64_t storage_faults_injected() const {
    return storage_faults_injected_.load(std::memory_order_relaxed);
  }

 private:
  struct Rule {
    LinkFaults faults;
    std::uint64_t key_hash = 0;  // folds the seed and the link key
    // Message ordinal on this link; shared_ptr so Decide can draw outside
    // the rules lock and a concurrent Heal cannot invalidate it.
    std::shared_ptr<std::atomic<std::uint64_t>> ordinal;
  };

  using LinkKey = std::pair<std::string, std::string>;

  struct StorageRule {
    StorageFaults faults;
    std::uint64_t key_hash = 0;
    std::shared_ptr<std::atomic<std::uint64_t>> ordinal;
    // One-shot flag lives behind a shared_ptr for the same reason as the
    // ordinal: consumed outside the rules lock.
    std::shared_ptr<std::atomic<bool>> fail_next;
  };

  void Install(LinkKey key, const LinkFaults& faults);

  const std::uint64_t seed_;
  mutable std::mutex mu_;
  std::map<LinkKey, Rule> rules_;
  std::map<std::string, StorageRule> storage_rules_;
  std::atomic<std::uint64_t> requests_dropped_{0};
  std::atomic<std::uint64_t> replies_dropped_{0};
  std::atomic<std::uint64_t> replies_duplicated_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<std::uint64_t> storage_faults_injected_{0};
};

// Identity of the node (or external actor) issuing RPCs from the current
// thread, used as the `from` side of fault-injection link lookups. Empty
// when unset (an anonymous caller, e.g. a test harness thread) — wildcard
// rules still apply. Node sets it to the callee's name while running a
// task, so nested RPCs (broker -> searcher) carry the right source; actors
// that dispatch from their own threads (the failure detector, benches)
// scope it explicitly.
const std::string& CurrentRpcSource();

class RpcSourceScope {
 public:
  explicit RpcSourceScope(std::string source);
  ~RpcSourceScope();

  RpcSourceScope(const RpcSourceScope&) = delete;
  RpcSourceScope& operator=(const RpcSourceScope&) = delete;

 private:
  std::string previous_;
};

}  // namespace jdvs
