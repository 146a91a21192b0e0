// Tests for the simulated cluster fabric: partitioner, latency model, nodes
// and their one RPC path (Node::Call), load balancer, fan-in, fault
// injection and per-RPC timeouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "net/fault_injector.h"
#include "net/latency_model.h"
#include "net/load_balancer.h"
#include "net/node.h"
#include "net/partitioner.h"
#include "net/rpc.h"
#include "net/timeout.h"
#include "obs/trace.h"
#include "qos/deadline.h"
#include "store/catalog.h"

namespace jdvs {
namespace {

TEST(PartitionerTest, StableAssignment) {
  const UrlPartitioner partitioner(20);
  for (int i = 0; i < 100; ++i) {
    const std::string url = MakeImageUrl(i, 0);
    EXPECT_EQ(partitioner.PartitionOf(url), partitioner.PartitionOf(url));
    EXPECT_LT(partitioner.PartitionOf(url), 20u);
  }
}

TEST(PartitionerTest, FiltersArePartition) {
  const UrlPartitioner partitioner(8);
  std::vector<PartitionFilter> filters;
  for (std::size_t p = 0; p < 8; ++p) filters.push_back(partitioner.FilterFor(p));
  for (int i = 0; i < 500; ++i) {
    const std::string url = MakeImageUrl(i, i % 3);
    int owners = 0;
    for (std::size_t p = 0; p < 8; ++p) {
      if (filters[p](url)) {
        ++owners;
        EXPECT_EQ(partitioner.PartitionOf(url), p);
      }
    }
    EXPECT_EQ(owners, 1);  // exactly one partition owns each image
  }
}

TEST(PartitionerTest, ReasonableBalance) {
  const UrlPartitioner partitioner(10);
  std::vector<int> counts(10, 0);
  constexpr int kUrls = 50000;
  for (int i = 0; i < kUrls; ++i) {
    ++counts[partitioner.PartitionOf(MakeImageUrl(i, 0))];
  }
  for (const int c : counts) {
    EXPECT_GT(c, kUrls / 10 / 2);
    EXPECT_LT(c, kUrls / 10 * 2);
  }
}

TEST(PartitionerTest, ZeroPartitionsClampedToOne) {
  const UrlPartitioner partitioner(0);
  EXPECT_EQ(partitioner.num_partitions(), 1u);
  EXPECT_EQ(partitioner.PartitionOf("anything"), 0u);
}

TEST(LatencyModelTest, ZeroModelSamplesZero) {
  const LatencyModel model;
  EXPECT_TRUE(model.IsZero());
  Rng rng(1);
  EXPECT_EQ(model.SampleMicros(rng), 0);
}

TEST(LatencyModelTest, BaseOnlyIsDeterministic) {
  const LatencyModel model{.base_micros = 250};
  Rng rng(1);
  EXPECT_EQ(model.SampleMicros(rng), 250);
}

TEST(LatencyModelTest, JitterMedianApproximatelyRight) {
  const LatencyModel model{
      .base_micros = 0, .jitter_median_micros = 1000, .sigma = 0.5};
  Rng rng(7);
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 10001; ++i) samples.push_back(model.SampleMicros(rng));
  std::sort(samples.begin(), samples.end());
  const double median = static_cast<double>(samples[samples.size() / 2]);
  EXPECT_NEAR(median, 1000.0, 100.0);
}

TEST(NodeTest, InvokeRunsOnNodePool) {
  Node node("test-node", 2);
  auto f = node.Invoke([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(NodeTest, InvokeVoid) {
  Node node("test-node", 1);
  std::atomic<bool> ran{false};
  node.Invoke([&ran] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
}

TEST(NodeTest, FailedNodeThrowsThroughFuture) {
  Node node("flaky", 1);
  node.set_failed(true);
  auto f = node.Invoke([] { return 1; });
  EXPECT_THROW(f.get(), NodeFailedError);
  node.set_failed(false);
  EXPECT_EQ(node.Invoke([] { return 2; }).get(), 2);
}

TEST(NodeTest, ParallelInvocationsAllComplete) {
  Node node("par", 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(node.Invoke([i] { return i * 2; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * 2);
}

TEST(RoundRobinTest, CyclesThroughBackends) {
  int a = 1;
  int b = 2;
  int c = 3;
  RoundRobinBalancer<int> balancer({&a, &b, &c});
  std::multiset<int> seen;
  for (int i = 0; i < 6; ++i) seen.insert(balancer.Next());
  EXPECT_EQ(seen.count(1), 2u);
  EXPECT_EQ(seen.count(2), 2u);
  EXPECT_EQ(seen.count(3), 2u);
}

TEST(RoundRobinTest, SkipsUnhealthy) {
  int a = 1;
  int b = 2;
  RoundRobinBalancer<int> balancer({&a, &b},
                                   [](const int& v) { return v != 1; });
  for (int i = 0; i < 5; ++i) EXPECT_EQ(balancer.Next(), 2);
}

TEST(RoundRobinTest, ThrowsWhenAllDown) {
  int a = 1;
  RoundRobinBalancer<int> balancer({&a}, [](const int&) { return false; });
  // Typed, so callers can branch on total-outage...
  EXPECT_THROW(balancer.Next(), NoHealthyBackendError);
  // ...while pre-existing catch(runtime_error) sites still work.
  EXPECT_THROW(balancer.Next(), std::runtime_error);
}

TEST(RoundRobinTest, RejectsEmptyBackendList) {
  EXPECT_THROW(RoundRobinBalancer<int>({}), std::invalid_argument);
}

TEST(NodeTest, CallDeliversValueToCallback) {
  Node node("async", 2);
  std::promise<AsyncResult<int>> delivered;
  node.Call({}, [](obs::Span&) { return 41 + 1; },
            [&delivered](AsyncResult<int> result) {
              delivered.set_value(std::move(result));
            });
  const AsyncResult<int> result = delivered.get_future().get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.value, 42);
}

TEST(NodeTest, CallVoid) {
  Node node("async-void", 1);
  std::promise<bool> done;
  node.Call({}, [](obs::Span&) {}, [&done](AsyncResult<void> result) {
    done.set_value(result.ok());
  });
  EXPECT_TRUE(done.get_future().get());
}

TEST(NodeTest, CallFailedNodeDeliversError) {
  Node node("flaky-async", 1);
  node.set_failed(true);
  std::promise<AsyncResult<int>> delivered;
  node.Call({}, [](obs::Span&) { return 1; },
            [&delivered](AsyncResult<int> result) {
              delivered.set_value(std::move(result));
            });
  const AsyncResult<int> result = delivered.get_future().get();
  ASSERT_FALSE(result.ok());
  EXPECT_THROW(std::rethrow_exception(result.error), NodeFailedError);
  EXPECT_NE(DescribeException(result.error).find("flaky-async"),
            std::string::npos);
}

TEST(NodeTest, CallFnExceptionReachesCallback) {
  Node node("thrower", 1);
  std::promise<AsyncResult<int>> delivered;
  node.Call(
      {}, [](obs::Span&) -> int { throw std::runtime_error("scan exploded"); },
      [&delivered](AsyncResult<int> result) {
        delivered.set_value(std::move(result));
      });
  const AsyncResult<int> result = delivered.get_future().get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(DescribeException(result.error), "scan exploded");
}

// A call under a sampled parent: its callee-side span records into `sink`.
CallOptions Traced(obs::TraceSink& sink) {
  CallOptions options;
  options.sink = &sink;
  options.parent = obs::TraceContext{.trace_id = 7, .span_id = 1};
  options.span_name = "scan";
  return options;
}

TEST(NodeTest, ExpiredDeadlineShedsCallAndTagsSpan) {
  obs::TraceSink sink;
  Node node("shedder", 1);
  std::atomic<bool> ran{false};
  std::promise<AsyncResult<int>> delivered;
  CallOptions options = Traced(sink);
  options.deadline = qos::Deadline::At(0);  // already expired
  node.Call(options,
            [&ran](obs::Span&) {
              ran.store(true);
              return 1;
            },
            [&delivered](AsyncResult<int> result) {
              delivered.set_value(std::move(result));
            });
  const AsyncResult<int> result = delivered.get_future().get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(qos::IsDeadlineExceeded(result.error));
  EXPECT_FALSE(ran.load());
  const std::vector<obs::SpanRecord> spans = sink.Collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "scan");
  EXPECT_EQ(spans[0].node, "shedder");
  EXPECT_FALSE(spans[0].ok);
  EXPECT_EQ(spans[0].status, "deadline exceeded");
  using Tags = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(spans[0].tags, (Tags{{"deadline_exceeded", "1"}}));
}

TEST(NodeTest, FnExceptionFailsSpanAndReachesCallback) {
  obs::TraceSink sink;
  Node node("thrower-traced", 1);
  std::promise<AsyncResult<int>> delivered;
  node.Call(Traced(sink),
            [](obs::Span&) -> int {
              throw std::runtime_error("scan exploded");
            },
            [&delivered](AsyncResult<int> result) {
              delivered.set_value(std::move(result));
            });
  const AsyncResult<int> result = delivered.get_future().get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(DescribeException(result.error), "scan exploded");
  const std::vector<obs::SpanRecord> spans = sink.Collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].ok);
  EXPECT_EQ(spans[0].status, "scan exploded");
}

TEST(NodeTest, ShutDownPoolDeliversInline) {
  Node node("stopped", 1);
  node.pool().Shutdown();
  std::optional<AsyncResult<int>> delivered;
  node.Call({}, [](obs::Span&) { return 5; },
            [&delivered](AsyncResult<int> result) {
              delivered = std::move(result);
            });
  // No pool thread is left: the task ran on this thread before Call
  // returned.
  ASSERT_TRUE(delivered.has_value());
  ASSERT_TRUE(delivered->ok());
  EXPECT_EQ(*delivered->value, 5);
}

TEST(FanInCollectorTest, ZeroChildrenFiresImmediately) {
  bool fired = false;
  auto collector = FanInCollector<int>::Create(
      0, [&fired](std::vector<AsyncResult<int>> slots) {
        fired = true;
        EXPECT_TRUE(slots.empty());
      });
  EXPECT_TRUE(fired);
  EXPECT_EQ(collector->num_children(), 0u);
}

TEST(FanInCollectorTest, FiresOnceAfterLastChild) {
  std::atomic<int> fires{0};
  std::vector<AsyncResult<int>> received;
  auto collector = FanInCollector<int>::Create(
      3, [&](std::vector<AsyncResult<int>> slots) {
        fires.fetch_add(1);
        received = std::move(slots);
      });
  collector->Complete(1, AsyncResult<int>::Ok(10));
  EXPECT_EQ(fires.load(), 0);
  collector->Complete(0, AsyncResult<int>::Ok(20));
  EXPECT_EQ(fires.load(), 0);
  collector->Complete(2, AsyncResult<int>::Ok(30));
  EXPECT_EQ(fires.load(), 1);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(*received[0].value, 20);
  EXPECT_EQ(*received[1].value, 10);
  EXPECT_EQ(*received[2].value, 30);
}

TEST(FanInCollectorTest, AllChildrenFailedStillFires) {
  bool fired = false;
  auto collector = FanInCollector<int>::Create(
      2, [&fired](std::vector<AsyncResult<int>> slots) {
        fired = true;
        for (const auto& slot : slots) {
          EXPECT_FALSE(slot.ok());
          EXPECT_EQ(DescribeException(slot.error), "down");
        }
      });
  for (std::size_t slot = 0; slot < 2; ++slot) {
    collector->Complete(slot, AsyncResult<int>::Fail(std::make_exception_ptr(
                                  std::runtime_error("down"))));
  }
  EXPECT_TRUE(fired);
}

// Hammered under TSan by CI: concurrent Complete() calls from many threads
// must publish every slot to the firing thread and fire exactly once.
TEST(FanInCollectorTest, ConcurrentCompletionsFireExactlyOnce) {
  constexpr std::size_t kChildren = 32;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> fires{0};
    std::promise<std::vector<AsyncResult<int>>> delivered;
    auto collector = FanInCollector<int>::Create(
        kChildren, [&](std::vector<AsyncResult<int>> slots) {
          fires.fetch_add(1);
          delivered.set_value(std::move(slots));
        });
    std::vector<std::thread> threads;
    threads.reserve(kChildren);
    for (std::size_t slot = 0; slot < kChildren; ++slot) {
      threads.emplace_back([&collector, slot] {
        collector->Complete(slot,
                            AsyncResult<int>::Ok(static_cast<int>(slot) * 3));
      });
    }
    const std::vector<AsyncResult<int>> slots = delivered.get_future().get();
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(fires.load(), 1);
    ASSERT_EQ(slots.size(), kChildren);
    for (std::size_t slot = 0; slot < kChildren; ++slot) {
      ASSERT_TRUE(slots[slot].ok());
      EXPECT_EQ(*slots[slot].value, static_cast<int>(slot) * 3);
    }
  }
}

// The continuation must be released right after firing, so per-request
// state captured in it (which often points back at the collector) is freed
// without waiting for the last external collector reference to drop.
TEST(FanInCollectorTest, ContinuationReleasedAfterFire) {
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  auto collector = FanInCollector<int>::Create(
      1, [keep = std::move(sentinel)](std::vector<AsyncResult<int>>) {});
  EXPECT_FALSE(watch.expired());
  collector->Complete(0, AsyncResult<int>::Ok(1));
  EXPECT_TRUE(watch.expired());  // collector still alive, capture is not
}

// ---- Fault injection ----

TEST(FaultInjectorTest, SameSeedReplaysSameSchedule) {
  // Decisions hash (seed, link rule, message ordinal), so two injectors with
  // the same seed produce identical drop schedules message for message —
  // the property that makes chaos runs reproducible under --seed.
  const LinkFaults faults{.drop_probability = 0.4};
  FaultInjector a(42);
  FaultInjector b(42);
  a.SetLink("broker", "searcher", faults);
  b.SetLink("broker", "searcher", faults);
  std::vector<bool> schedule_a;
  std::vector<bool> schedule_b;
  for (int i = 0; i < 200; ++i) {
    schedule_a.push_back(a.Decide("broker", "searcher").drop_request);
    schedule_b.push_back(b.Decide("broker", "searcher").drop_request);
  }
  EXPECT_EQ(schedule_a, schedule_b);
  // And the probability is roughly honored (very loose bounds).
  const auto drops = std::count(schedule_a.begin(), schedule_a.end(), true);
  EXPECT_GT(drops, 40);
  EXPECT_LT(drops, 160);

  // A different seed yields a different schedule (with overwhelming
  // probability over 200 draws at p=0.4).
  FaultInjector c(43);
  c.SetLink("broker", "searcher", faults);
  std::vector<bool> schedule_c;
  for (int i = 0; i < 200; ++i) {
    schedule_c.push_back(c.Decide("broker", "searcher").drop_request);
  }
  EXPECT_NE(schedule_a, schedule_c);
}

TEST(FaultInjectorTest, ExactLinkRuleOverridesWildcard) {
  FaultInjector injector(1);
  injector.SetNode("searcher", LinkFaults{.partitioned = true});
  injector.SetLink("ctrl", "searcher", LinkFaults{});  // clean exception
  // The control plane's probes get through; everyone else is partitioned.
  EXPECT_FALSE(injector.Decide("ctrl", "searcher").drop_request);
  EXPECT_TRUE(injector.Decide("broker", "searcher").drop_request);
  EXPECT_TRUE(injector.Decide("", "searcher").drop_request);
  // No rule at all: clean.
  EXPECT_TRUE(injector.Decide("broker", "other").IsClean());
}

TEST(FaultInjectorTest, PartitionAndHealAreRuntimeControllable) {
  FaultInjector injector(2);
  injector.Partition("blender", "broker");
  EXPECT_TRUE(injector.Decide("blender", "broker").drop_request);
  EXPECT_GT(injector.requests_dropped(), 0u);
  injector.Heal("blender", "broker");
  EXPECT_TRUE(injector.Decide("blender", "broker").IsClean());
  injector.SetNode("broker", LinkFaults{.drop_probability = 1.0});
  EXPECT_TRUE(injector.Decide("anyone", "broker").drop_request);
  injector.Clear();
  EXPECT_TRUE(injector.Decide("anyone", "broker").IsClean());
}

TEST(FaultInjectorTest, LatencyFaultsPassThroughDecision) {
  FaultInjector injector(3);
  injector.SetLink(
      "a", "b",
      LinkFaults{.latency_multiplier = 50.0, .added_latency_micros = 123});
  const FaultInjector::Decision decision = injector.Decide("a", "b");
  EXPECT_FALSE(decision.drop_request);
  EXPECT_DOUBLE_EQ(decision.latency_multiplier, 50.0);
  EXPECT_EQ(decision.added_latency_micros, 123);
}

TEST(OnceCallbackTest, FirstCompletionWins) {
  int deliveries = 0;
  int value = 0;
  OnceCallback<int> guard([&](AsyncResult<int> result) {
    ++deliveries;
    value = *result.value;
  });
  EXPECT_FALSE(guard.delivered());
  EXPECT_TRUE(guard.Deliver(AsyncResult<int>::Ok(7)));
  EXPECT_FALSE(guard.Deliver(AsyncResult<int>::Ok(9)));  // suppressed
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(guard.delivered());
}

TEST(TimeoutSchedulerTest, FiresAndCancels) {
  TimeoutScheduler scheduler;
  std::promise<void> fired;
  const auto id =
      scheduler.Schedule(2'000, [&fired] { fired.set_value(); });
  EXPECT_NE(id, 0u);
  fired.get_future().get();  // fires on the worker thread
  EXPECT_EQ(scheduler.fired_total(), 1u);
  EXPECT_FALSE(scheduler.Cancel(id));  // already fired

  std::atomic<bool> must_not_fire{false};
  const auto id2 = scheduler.Schedule(
      60'000'000, [&must_not_fire] { must_not_fire.store(true); });
  EXPECT_TRUE(scheduler.Cancel(id2));
  EXPECT_EQ(scheduler.cancelled_total(), 1u);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_FALSE(must_not_fire.load());
}

CallOptions WithTimeout(Micros timeout_micros) {
  CallOptions options;
  options.timeout_micros = timeout_micros;
  return options;
}

TEST(NodeFaultTest, TimeoutBreaksTotalRequestLoss) {
  // 100% request loss: without a timeout the continuation would never fire.
  FaultInjector injector(5);
  injector.SetNode("lossy", LinkFaults{.drop_probability = 1.0});
  Node node("lossy", 1);
  node.set_fault_injector(&injector);
  std::promise<AsyncResult<int>> delivered;
  node.Call(
      WithTimeout(5'000), [](obs::Span&) { return 1; },
      [&delivered](AsyncResult<int> result) {
        delivered.set_value(std::move(result));
      });
  const AsyncResult<int> result = delivered.get_future().get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsRpcTimeout(result.error));
  EXPECT_GT(injector.requests_dropped(), 0u);
}

TEST(NodeFaultTest, ReplyBeatsTimeoutOnCleanLink) {
  FaultInjector injector(6);  // attached but no rules: clean fabric
  Node node("clean", 1);
  node.set_fault_injector(&injector);
  std::promise<AsyncResult<int>> delivered;
  node.Call(
      WithTimeout(10'000'000), [](obs::Span&) { return 27; },
      [&delivered](AsyncResult<int> result) {
        delivered.set_value(std::move(result));
      });
  const AsyncResult<int> result = delivered.get_future().get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.value, 27);
  // The winning reply disarms its own timer right after delivering; poll
  // briefly since the cancel runs after the promise is fulfilled.
  const Micros poll_deadline =
      MonotonicClock::Instance().NowMicros() + 2'000'000;
  while (TimeoutScheduler::Default().pending() > 0 &&
         MonotonicClock::Instance().NowMicros() < poll_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(TimeoutScheduler::Default().pending(), 0u);
}

TEST(NodeFaultTest, DuplicateReplyDeliveredExactlyOnce) {
  FaultInjector injector(7);
  injector.SetNode("dup", LinkFaults{.duplicate_probability = 1.0});
  Node node("dup", 1);
  node.set_fault_injector(&injector);
  std::atomic<int> deliveries{0};
  std::promise<void> first;
  node.Call({}, [](obs::Span&) { return 3; }, [&](AsyncResult<int> result) {
    ASSERT_TRUE(result.ok());
    if (deliveries.fetch_add(1) == 0) first.set_value();
  });
  first.get_future().get();
  EXPECT_GT(injector.replies_duplicated(), 0u);
  // The duplicate is delivered (and swallowed) right after the original on
  // the same pool thread; give that second Deliver a moment to land.
  const Micros poll_deadline = MonotonicClock::Instance().NowMicros() + 2'000'000;
  while (injector.duplicates_suppressed() < injector.replies_duplicated() &&
         MonotonicClock::Instance().NowMicros() < poll_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(injector.duplicates_suppressed(), injector.replies_duplicated());
  EXPECT_EQ(deliveries.load(), 1);
}

TEST(NodeFaultTest, DroppedReplyStillRanTheWork) {
  // Reply loss: the side effect happened, the caller only hears the timeout
  // — the asymmetry that makes reply loss nastier than request loss.
  FaultInjector injector(8);
  injector.SetNode("ack-lost", LinkFaults{.reply_drop_probability = 1.0});
  Node node("ack-lost", 1);
  node.set_fault_injector(&injector);
  std::atomic<bool> ran{false};
  std::promise<AsyncResult<void>> delivered;
  node.Call(
      WithTimeout(5'000),
      [&ran](obs::Span&) { ran.store(true); },
      [&delivered](AsyncResult<void> result) {
        delivered.set_value(std::move(result));
      });
  const AsyncResult<void> result = delivered.get_future().get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsRpcTimeout(result.error));
  EXPECT_TRUE(ran.load());
  EXPECT_GT(injector.replies_dropped(), 0u);
}

TEST(NodeFaultTest, AddedLatencyStretchesTheHop) {
  FaultInjector injector(9);
  injector.SetNode("limpy", LinkFaults{.added_latency_micros = 30'000});
  Node node("limpy", 1);
  node.set_fault_injector(&injector);
  const Micros start = MonotonicClock::Instance().NowMicros();
  node.Invoke([] { return 0; }).get();
  // Two hops (request + reply), each stretched by 30ms.
  EXPECT_GE(MonotonicClock::Instance().NowMicros() - start, 50'000);
}

TEST(NodeFaultTest, InvokeFutureBreaksInsteadOfHanging) {
  // The blocking facade cannot wait forever either: a dropped message with
  // no timeout breaks the promise, surfacing as std::future_error.
  FaultInjector injector(10);
  injector.SetNode("void", LinkFaults{.drop_probability = 1.0});
  Node node("void", 1);
  node.set_fault_injector(&injector);
  auto future = node.Invoke([] { return 1; });
  EXPECT_THROW(future.get(), std::future_error);
}

}  // namespace
}  // namespace jdvs
