// Figure 12 — "Performance W/ and W/O Real Time Index".
//
// Paper (testbed: 100k images, 20 searchers, 6 blender/broker servers, 1
// Nginx, 1 client): at 50/100/200 concurrent client threads, (a) query
// throughput with real-time indexing enabled is within 10% of the baseline
// without it, and (b) query response times are similar, averaging <100ms.
//
// Reproduction: two identical simulated testbeds — one consuming a live
// update stream through the real-time indexing path, one with real-time
// indexing disabled (updates only buffered for the next full build). A
// closed-loop client sweeps 50/100/200 threads against each; the harness
// prints normalized throughput and mean response time per cell.
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench_common.h"

namespace {

using namespace jdvs;
using namespace jdvs::bench;

// Publishes trace messages in a loop at a steady rate until stopped.
class UpdatePump {
 public:
  UpdatePump(VisualSearchCluster& cluster, double rate_per_sec)
      : cluster_(cluster), interval_micros_(static_cast<Micros>(
                               1e6 / rate_per_sec)) {
    DayTraceConfig tc;
    tc.total_messages = 200000;
    tc.num_categories = 50;
    tc.hourly_weights.fill(1.0);  // steady stream during measurement
    DayTraceGenerator generator(tc, cluster.catalog());
    generator.Generate([this](const TraceEvent& event) {
      messages_.push_back(event.message);
    });
  }

  void Start() {
    thread_ = std::thread([this] {
      const auto& clock = MonotonicClock::Instance();
      Micros next = clock.NowMicros();
      std::size_t i = 0;
      while (!stop_.load(std::memory_order_acquire)) {
        cluster_.PublishUpdate(messages_[i++ % messages_.size()]);
        next += interval_micros_;
        const Micros now = clock.NowMicros();
        if (next > now) {
          std::this_thread::sleep_for(std::chrono::microseconds(next - now));
        }
      }
    });
  }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  VisualSearchCluster& cluster_;
  Micros interval_micros_;
  std::vector<ProductUpdateMessage> messages_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

QueryWorkloadResult Measure(VisualSearchCluster& cluster, std::size_t threads,
                            Micros duration) {
  QueryWorkloadConfig qc;
  qc.num_threads = threads;
  qc.duration_micros = duration;
  qc.k = 10;
  QueryClient client(cluster, qc);
  return client.Run();
}

}  // namespace

int main() {
  PrintHeader("Figure 12: throughput & response time W/ vs W/O real-time index",
              "real-time indexing overhead <10% on QPS; response times "
              "similar, average <100ms");

  TestbedOptions with_rt;
  with_rt.realtime = true;
  with_rt.trace_sample_every = 16;  // per-stage breakdown incl. rt_apply
  TestbedOptions without_rt = with_rt;
  without_rt.realtime = false;

  std::printf("building W/ real-time testbed (100k images, 20 searchers)...\n");
  auto cluster_rt = BuildTestbed(with_rt);
  std::printf("building W/O real-time testbed...\n");
  auto cluster_base = BuildTestbed(without_rt);

  constexpr Micros kDuration = 4'000'000;
  const std::size_t kThreadCounts[] = {50, 100, 200};

  struct Cell {
    double qps;
    double mean_s;
    double p99_s;
  };
  Cell rt[3];
  Cell base[3];

  for (int i = 0; i < 3; ++i) {
    const std::size_t threads = kThreadCounts[i];
    // Update rate: in production the real-time stream consumes a small
    // fraction of each searcher's cores (one consumer thread out of 24).
    // This simulation time-shares every node on the host CPU, so the rate is
    // scaled to a comparable fraction of the testbed's update capacity
    // rather than replaying the raw production message rate.
    constexpr double kUpdateRate = 250.0;
    // Baseline first (no update traffic is consumed there even though the
    // pump publishes, because real-time indexing is disabled).
    {
      UpdatePump pump(*cluster_base, kUpdateRate);
      pump.Start();
      const auto result = Measure(*cluster_base, threads, kDuration);
      pump.Stop();
      base[i] = {result.qps, result.latency_micros->Mean() * 1e-6,
                 static_cast<double>(result.latency_micros->P99()) * 1e-6};
    }
    {
      UpdatePump pump(*cluster_rt, kUpdateRate);
      pump.Start();
      const auto result = Measure(*cluster_rt, threads, kDuration);
      pump.Stop();
      rt[i] = {result.qps, result.latency_micros->Mean() * 1e-6,
               static_cast<double>(result.latency_micros->P99()) * 1e-6};
    }
    std::printf("  measured %zu threads\n", threads);
  }

  std::printf("\n(a) throughput, normalized to W/O real-time at each thread "
              "count (paper: W/ >= 0.9):\n");
  std::printf("%10s %18s %18s %12s\n", "threads", "W/O RT (norm)",
              "With RT (norm)", "overhead");
  for (int i = 0; i < 3; ++i) {
    const double norm = rt[i].qps / base[i].qps;
    std::printf("%10zu %18.3f %18.3f %11.1f%%\n", kThreadCounts[i], 1.0, norm,
                100.0 * (1.0 - norm));
  }

  std::printf("\n(b) query response time, seconds (paper: similar curves, "
              "average <0.1s):\n");
  std::printf("%10s %14s %14s %14s %14s\n", "threads", "W/O RT mean",
              "With RT mean", "W/O RT p99", "With RT p99");
  for (int i = 0; i < 3; ++i) {
    std::printf("%10zu %14.4f %14.4f %14.4f %14.4f\n", kThreadCounts[i],
                base[i].mean_s, rt[i].mean_s, base[i].p99_s, rt[i].p99_s);
  }

  // Each message is applied once per replica of each partition it was
  // routed to, so partition applies exceed messages.
  cluster_rt->WaitForUpdatesDrained();
  const std::uint64_t published = cluster_rt->updates_published();
  const std::uint64_t applies =
      cluster_rt->TotalUpdateCounters().TotalMessages();
  std::printf("\nreal-time path during the W/ runs: %llu messages published, "
              "%llu partition applies (%.3f per message)\n",
              (unsigned long long)published, (unsigned long long)applies,
              published == 0 ? 0.0
                             : static_cast<double>(applies) /
                                   static_cast<double>(published));

  // Each cluster owns a private registry, so the two breakdowns don't mix.
  std::printf("\nW/ real-time:");
  PrintStageBreakdown(cluster_rt->registry());
  std::printf("\nW/O real-time:");
  PrintStageBreakdown(cluster_base->registry());
  cluster_rt->Stop();
  cluster_base->Stop();
  return 0;
}
