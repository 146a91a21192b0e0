// Simulated cluster node.
//
// Each blender, broker and searcher instance of Figure 10 runs as a Node: a
// named entity with its own bounded worker pool (standing in for a server's
// cores) and a fail switch for availability experiments. Call() is the one
// RPC path: the callable runs on the *callee's* pool after a simulated
// network hop, and its outcome reaches a completion callback after a second
// hop, on the callee's pool thread — so fan-out calls from one node to many
// execute genuinely in parallel, a saturated node queues requests exactly
// like a busy server, and no caller thread ever parks waiting for a
// response. Invoke() is the blocking future facade over Call().
//
// Fault model: an attached FaultInjector (set_fault_injector) gives every
// message a per-link fate — dropped request, dropped or duplicated reply,
// stretched latency, directed partition. A dropped message is *silent*: the
// continuation never fires unless the caller armed a per-RPC timeout
// (CallOptions::timeout_micros), in which case the shared TimeoutScheduler
// delivers a typed RpcTimeoutError instead, and a late or duplicated reply
// is swallowed by the per-call first-completion-wins guard.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "net/fault_injector.h"
#include "net/latency_model.h"
#include "net/rpc.h"
#include "net/timeout.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "qos/deadline.h"

namespace jdvs {

// Delivered by a Call() while the callee is marked failed (brokers catch it
// and fail over to a replica, Section 2.4 "multiple copies for
// availability").
class NodeFailedError : public std::runtime_error {
 public:
  explicit NodeFailedError(const std::string& node)
      : std::runtime_error("node failed: " + node) {}
};

// How one Node::Call travels. The defaults give a plain RPC: no span, no
// deadline, no timeout.
struct CallOptions {
  // Callee-side span: a child of `parent`, recorded into `sink`, covering
  // `fn` only (the gap to the parent span is network + queue time). A no-op
  // when `parent` is unsampled or `sink` is null, so untraced requests pay
  // nothing.
  obs::TraceSink* sink = nullptr;
  obs::TraceContext parent;
  std::string span_name;
  // Re-checked on the callee's pool thread after the request hop — i.e.
  // after the time the call spent in the network and the pool queue — so a
  // saturated node sheds queued work it could no longer answer in time. An
  // unlimited deadline costs one integer compare.
  qos::Deadline deadline;
  // > 0 arms a per-RPC timeout: when no reply reached `on_done` by then,
  // the shared TimeoutScheduler delivers RpcTimeoutError on its timer
  // thread, so a dropped message cannot hang the caller.
  Micros timeout_micros = 0;
};

class Node {
 public:
  Node(std::string name, std::size_t threads, LatencyModel latency = {},
       std::uint64_t seed = 0)
      : name_(std::move(name)),
        latency_(latency),
        seed_(HashCombine(Mix64(seed), Fnv1a64(name_))),
        pool_(threads, name_) {}

  // Schedules `fn(span)` on this node's pool and delivers its outcome —
  // value or std::exception_ptr — to `on_done` as an AsyncResult<R> on the
  // callee's pool thread. `span` is the callee-side span of `options` (a
  // no-op when none was requested); an exception from `fn` marks it failed
  // and reaches `on_done`. An expired deadline delivers
  // DeadlineExceededError without running `fn`, with the span tagged
  // deadline_exceeded so traces show where budgets die; a failed node
  // delivers NodeFailedError. Exactly one delivery ever reaches `on_done` —
  // reply, duplicated reply or timeout, whichever wins the per-call
  // OnceCallback guard; the rest are swallowed (and a swallowed injected
  // duplicate is counted by the injector). If the pool is already shut
  // down, the task runs inline so the callback still fires.
  template <typename F, typename Done>
  void Call(const CallOptions& options, F&& fn, Done&& on_done) {
    using R = std::invoke_result_t<F, obs::Span&>;
    FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
    FaultInjector::Decision fate;
    if (injector != nullptr) fate = injector->Decide(CurrentRpcSource(), name_);
    auto guard =
        std::make_shared<OnceCallback<R>>(std::forward<Done>(on_done));
    ArmRpcTimeout(guard, name_, options.timeout_micros);
    if (fate.drop_request) {
      // Lost in transit: the callee never sees it. Only the timer (if any)
      // can answer the caller — exactly the hang the timeout exists for.
      return;
    }
    auto task = [this, injector, fate, guard, options = options,
                 fn = std::forward<F>(fn)]() mutable {
      RpcSourceScope source(name_);
      const Clock& clock = MonotonicClock::Instance();
      AsyncResult<R> result;
      try {
        ChargeHop(latency_, seed_, fate.latency_multiplier,
                  fate.added_latency_micros);  // request transit
        if (failed_.load(std::memory_order_acquire)) {
          throw NodeFailedError(name_);
        }
        {
          obs::Span span(options.sink, clock, options.parent,
                         std::move(options.span_name), name_);
          if (options.deadline.Expired(clock)) {
            span.AddTag("deadline_exceeded", std::uint64_t{1});
            span.SetError("deadline exceeded");
            throw qos::DeadlineExceededError(name_);
          }
          try {
            if constexpr (std::is_void_v<R>) {
              fn(span);
            } else {
              result.value.emplace(fn(span));
            }
          } catch (const std::exception& e) {
            span.SetError(e.what());
            throw;
          }
        }
        ChargeHop(latency_, seed_, fate.latency_multiplier,
                  fate.added_latency_micros);  // response transit
      } catch (...) {
        result.error = std::current_exception();
      }
      if (fate.drop_reply) {
        // The work ran (side effects applied) but the caller hears nothing.
        injector->OnReplyDropped();
        return;
      }
      if constexpr (std::is_void_v<R> || std::is_copy_constructible_v<R>) {
        if (fate.duplicate_reply) {
          AsyncResult<R> duplicate = result;
          DeliverAndCancelTimer(*guard, std::move(result));
          if (!guard->Deliver(std::move(duplicate))) {
            injector->OnDuplicateSuppressed();
          }
          return;
        }
      }
      DeliverAndCancelTimer(*guard, std::move(result));
    };
    // shared_ptr wrapper: std::function requires copyable callables, and a
    // failed Submit (pool shut down) must still be able to run the task.
    auto shared = std::make_shared<decltype(task)>(std::move(task));
    if (!pool_.Submit([shared] { (*shared)(); })) (*shared)();
  }

  // Future facade over a plain Call(), for tests: `fn()` runs on this
  // node's pool and its outcome (or NodeFailedError while failed() is set)
  // arrives through the future. A dropped message breaks the promise (the
  // future throws std::future_error) rather than hanging the caller.
  template <typename F>
  auto Invoke(F&& fn) -> std::future<std::invoke_result_t<F>> {
    auto [done, future] = PromiseCallback<std::invoke_result_t<F>>();
    Call({}, [fn = std::forward<F>(fn)](obs::Span&) mutable { return fn(); },
         std::move(done));
    return std::move(future);
  }

  void set_failed(bool failed) {
    failed_.store(failed, std::memory_order_release);
  }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // Attaches (or detaches, with null) the fault injector consulted for
  // every message into this node. The injector must outlive the node's
  // in-flight work; benches install it at cluster wiring time.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  const std::string& name() const { return name_; }
  ThreadPool& pool() { return pool_; }
  const LatencyModel& latency() const { return latency_; }

 private:
  std::string name_;
  LatencyModel latency_;
  std::uint64_t seed_;
  std::atomic<bool> failed_{false};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  ThreadPool pool_;
};

}  // namespace jdvs
