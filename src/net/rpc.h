// RPC helpers around Node::Call.
//
// The continuation-passing request path (blender -> broker -> searcher)
// moves results between tiers as AsyncResult<R> values delivered to
// completion callbacks, and joins fan-outs with FanInCollector: an
// atomic-countdown aggregator that owns the per-request partials on the
// heap and fires a single continuation on whichever pool thread delivers
// the last child. No thread ever parks in a future.get() between tiers;
// PromiseCallback bridges a callback to a future for the blocking facades.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace jdvs {

// Outcome of one async invocation: exactly one of `value` (engaged) or
// `error` (non-null) is set. The value travels by move through the
// continuation chain.
template <typename R>
struct AsyncResult {
  std::optional<R> value;
  std::exception_ptr error;

  bool ok() const { return error == nullptr; }

  static AsyncResult Ok(R v) {
    AsyncResult r;
    r.value.emplace(std::move(v));
    return r;
  }
  static AsyncResult Fail(std::exception_ptr e) {
    AsyncResult r;
    r.error = std::move(e);
    return r;
  }
};

template <>
struct AsyncResult<void> {
  std::exception_ptr error;

  bool ok() const { return error == nullptr; }

  static AsyncResult Ok() { return AsyncResult{}; }
  static AsyncResult Fail(std::exception_ptr e) {
    AsyncResult r;
    r.error = std::move(e);
    return r;
  }
};

// what() of the exception inside `error`, for tagging trace spans.
inline std::string DescribeException(const std::exception_ptr& error) {
  if (error == nullptr) return "ok";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

// First-completion-wins delivery guard for one RPC.
//
// With timeouts, hedged requests and a fabric that can duplicate replies,
// several deliveries race for the same continuation: the real reply, an
// injected duplicate, the timeout timer, a hedge's reply. Exactly one may
// win — a FanInCollector slot completed twice corrupts the fan-in. The
// guard is the arbitration point: Deliver() runs the wrapped callback for
// the first caller and tells every later one it lost.
template <typename R>
class OnceCallback {
 public:
  using Done = std::function<void(AsyncResult<R>)>;

  explicit OnceCallback(Done done) : done_(std::move(done)) {}

  OnceCallback(const OnceCallback&) = delete;
  OnceCallback& operator=(const OnceCallback&) = delete;

  // Runs the callback with `result` iff no delivery won yet; returns
  // whether this one did. The acq_rel exchange makes the winner's read of
  // done_ safe against the losers.
  bool Deliver(AsyncResult<R> result) {
    if (delivered_.exchange(true, std::memory_order_acq_rel)) return false;
    Done done = std::move(done_);
    done_ = nullptr;  // release captures promptly; the guard may outlive us
    done(std::move(result));
    return true;
  }

  bool delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

  // Cooperating one-shot timer (TimeoutScheduler id; 0 = none): armed by
  // ArmRpcTimeout next to the RPC, disarmed by whichever delivery wins
  // (DeliverAndCancelTimer; both in net/timeout.h).
  std::atomic<std::uint64_t> timer_id{0};

 private:
  std::atomic<bool> delivered_{false};
  Done done_;
};

// Countdown fan-in aggregator for one fan-out wave.
//
// Create() fixes the child count up front; each child chain calls
// Complete(slot, result) exactly once when its outcome is final (a failed
// replica that will be retried must NOT complete its slot — the retry is
// dispatched from the child's completion callback and completes the slot
// later). The thread that delivers the last slot invokes the continuation
// with all slots; the continuation is released immediately after firing so
// per-request state captured in it (and any cycle back to the collector)
// is freed promptly. Zero children fire the continuation inside Create().
template <typename R>
class FanInCollector {
 public:
  using Continuation = std::function<void(std::vector<AsyncResult<R>>)>;

  static std::shared_ptr<FanInCollector> Create(std::size_t children,
                                                Continuation done) {
    auto collector = std::shared_ptr<FanInCollector>(
        new FanInCollector(children, std::move(done)));
    if (children == 0) collector->Fire();
    return collector;
  }

  FanInCollector(const FanInCollector&) = delete;
  FanInCollector& operator=(const FanInCollector&) = delete;

  // Thread-safe across slots; each slot must be completed exactly once.
  // The release-decrement publishes the slot write to the acquiring thread
  // that brings the count to zero and fires.
  void Complete(std::size_t slot, AsyncResult<R> result) {
    slots_[slot] = std::move(result);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) Fire();
  }

  std::size_t num_children() const { return slots_.size(); }

 private:
  FanInCollector(std::size_t children, Continuation done)
      : remaining_(children), slots_(children), done_(std::move(done)) {}

  void Fire() {
    Continuation done = std::move(done_);
    done_ = nullptr;  // break state <-> collector reference cycles
    done(std::move(slots_));
  }

  std::atomic<std::size_t> remaining_;
  std::vector<AsyncResult<R>> slots_;
  Continuation done_;
};

// Bridges a continuation to a future: returns a completion callback and the
// future it fulfils. When every copy of the callback is destroyed without
// being called (a dropped message with no timeout), the promise breaks and
// the future throws std::future_error instead of hanging its reader.
template <typename R>
std::pair<std::function<void(AsyncResult<R>)>, std::future<R>>
PromiseCallback() {
  auto promise = std::make_shared<std::promise<R>>();
  std::future<R> future = promise->get_future();
  auto done = [promise](AsyncResult<R> result) {
    if (!result.ok()) {
      promise->set_exception(result.error);
    } else if constexpr (std::is_void_v<R>) {
      promise->set_value();
    } else {
      promise->set_value(std::move(*result.value));
    }
  };
  return {std::move(done), std::move(future)};
}

}  // namespace jdvs
