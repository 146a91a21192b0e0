// Shared timer scheduler for per-RPC timeouts and hedged requests.
//
// The fabric's failure model (fault_injector.h) can silently drop a message,
// and a real network can too — so a continuation that only fires when the
// reply arrives is a continuation that may never fire. TimeoutScheduler is
// the process-wide alarm clock that breaks that hang: callers arm a one-shot
// timer alongside the RPC, the reply path cancels it, and if the reply never
// comes the timer delivers a typed RpcTimeoutError through the same
// first-completion-wins guard (OnceCallback in rpc.h) the reply would have
// used; ArmRpcTimeout is that arm, shared by Node::Call and the blender's
// per-broker guard. One worker thread serves every node in the process,
// mirroring how a real client library multiplexes deadlines onto one timer
// wheel instead of burning a thread per outstanding call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/clock.h"
#include "net/rpc.h"

namespace jdvs {

// Thrown (through the continuation's AsyncResult) when an RPC's timeout
// fires before any reply arrived. Distinct from NodeFailedError: the callee
// may be perfectly healthy and the message lost in transit — the caller
// only knows the reply did not come back in time.
class RpcTimeoutError : public std::runtime_error {
 public:
  RpcTimeoutError(const std::string& callee, Micros timeout_micros)
      : std::runtime_error("rpc timeout after " +
                           std::to_string(timeout_micros) + "us calling " +
                           callee) {}
};

// True when `error` holds an RpcTimeoutError (broker failover and client SLO
// accounting branch on it).
inline bool IsRpcTimeout(const std::exception_ptr& error) {
  if (error == nullptr) return false;
  try {
    std::rethrow_exception(error);
  } catch (const RpcTimeoutError&) {
    return true;
  } catch (...) {
    return false;
  }
}

class TimeoutScheduler {
 public:
  using TimerId = std::uint64_t;

  explicit TimeoutScheduler(const Clock& clock = MonotonicClock::Instance());
  ~TimeoutScheduler();

  TimeoutScheduler(const TimeoutScheduler&) = delete;
  TimeoutScheduler& operator=(const TimeoutScheduler&) = delete;

  // The process-wide instance every Node shares.
  static TimeoutScheduler& Default();

  // Arms a one-shot timer: `fire` runs on the scheduler's worker thread
  // `delay_micros` from now, unless cancelled first. Returns a nonzero id.
  // `fire` may itself Schedule() or Cancel() other timers (the scheduler
  // drops its lock while firing).
  TimerId Schedule(Micros delay_micros, std::function<void()> fire);

  // Disarms a pending timer. False when the timer already fired, was
  // already cancelled, or never existed — the caller lost the race, and the
  // callback either ran or is running.
  bool Cancel(TimerId id);

  std::size_t pending() const;
  std::uint64_t fired_total() const {
    return fired_.load(std::memory_order_relaxed);
  }
  std::uint64_t cancelled_total() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  struct PendingTimer {
    TimerId id = 0;
    std::function<void()> fire;
  };
  using Queue = std::multimap<Micros, PendingTimer>;

  void RunLoop();

  const Clock* clock_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Queue queue_;                                      // keyed by fire time
  std::unordered_map<TimerId, Queue::iterator> by_id_;
  TimerId next_id_ = 1;
  bool stop_ = false;
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::thread worker_;  // last member: joins before the rest is torn down
};

// Arms a `timeout_micros` timer on the shared scheduler that delivers
// RpcTimeoutError(callee) through `guard` unless a reply wins it first (the
// winner disarms the timer, see DeliverAndCancelTimer). No-op when
// `timeout_micros` <= 0.
template <typename R>
void ArmRpcTimeout(const std::shared_ptr<OnceCallback<R>>& guard,
                   const std::string& callee, Micros timeout_micros) {
  if (timeout_micros <= 0) return;
  const TimeoutScheduler::TimerId id = TimeoutScheduler::Default().Schedule(
      timeout_micros, [guard, callee, timeout_micros] {
        guard->Deliver(AsyncResult<R>::Fail(std::make_exception_ptr(
            RpcTimeoutError(callee, timeout_micros))));
      });
  guard->timer_id.store(id, std::memory_order_release);
}

// Completes `guard` with `result`; when this delivery wins the race it also
// disarms the cooperating timeout timer (if one was armed in
// guard->timer_id), so the scheduler does not hold dead closures until they
// expire. Returns whether this delivery won.
template <typename R>
bool DeliverAndCancelTimer(OnceCallback<R>& guard, AsyncResult<R> result) {
  const bool won = guard.Deliver(std::move(result));
  if (won) {
    const TimeoutScheduler::TimerId id =
        guard.timer_id.load(std::memory_order_acquire);
    if (id != 0) TimeoutScheduler::Default().Cancel(id);
  }
  return won;
}

}  // namespace jdvs
