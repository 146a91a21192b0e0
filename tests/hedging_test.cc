// Gray-failure defenses at the broker: per-attempt RPC timeouts turning
// silent message loss into failover, hedged requests racing a limping
// replica against a healthy sibling, the hedge rate cap, and the
// deadline/hedge interaction (a hedge is extra load, and extra load after
// the client has already given up is pure waste).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "index/full_index_builder.h"
#include "net/fault_injector.h"
#include "obs/registry.h"
#include "qos/deadline.h"
#include "search/broker.h"
#include "search/searcher.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

bool AcceptAll(std::string_view) { return true; }

// Two full-coverage replica searchers behind one broker partition — the
// smallest topology where a hedge has somewhere to go.
struct TwoReplicaHarness {
  SyntheticEmbedder embedder;
  FeatureDb features;
  ProductCatalog catalog;
  ImageStore images;
  Searcher r0;
  Searcher r1;

  TwoReplicaHarness(const Searcher::Config& c0, const Searcher::Config& c1)
      : embedder({.dim = 16, .num_categories = 2, .seed = 7}),
        features(embedder, ExtractionCostModel{.mean_micros = 0}),
        r0("hedge-r0", c0, features, AcceptAll),
        r1("hedge-r1", c1, features, AcceptAll) {
    CatalogGenConfig cg;
    cg.num_products = 40;
    cg.num_categories = 2;
    GenerateCatalog(cg, catalog, images);
    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 4;
    fc.index_config.nprobe = 4;
    FullIndexBuilder builder(catalog, images, features, fc);
    const auto quantizer = builder.TrainQuantizer();
    r0.InstallIndex(builder.Build(quantizer, AcceptAll));
    r1.InstallIndex(builder.Build(quantizer, AcceptAll));
  }

  FeatureVector Query(std::uint64_t seed) {
    const auto record = catalog.Get(1 + seed % 30);
    return embedder.ExtractQuery(record->id, record->category, seed);
  }
};

// One replica answers 80ms slow (network fault, not load — its heartbeats
// would still ack instantly); the hedge fires after 5ms and the healthy
// sibling's reply wins the slot, so the query finishes far under the
// limper's latency.
TEST(HedgingTest, HedgeWinsOverLimpingReplica) {
  Searcher::Config sc;
  sc.threads = 2;
  sc.latency = LatencyModel{.base_micros = 500};
  TwoReplicaHarness h(sc, sc);

  FaultInjector injector(21);
  injector.SetLink("b-hedge", h.r0.name(),
                   LinkFaults{.added_latency_micros = 80'000});
  h.r0.node().set_fault_injector(&injector);

  obs::Registry registry;
  Broker::Config bc;
  bc.threads = 2;
  bc.registry = &registry;
  bc.enable_hedging = true;
  bc.hedge_delay_micros = 5'000;
  bc.hedge_rate_cap = 0.0;  // uncapped: this test is about the race
  Broker broker("b-hedge", bc);
  broker.AddPartition({&h.r0, &h.r1});

  const auto& clock = MonotonicClock::Instance();
  // The rotation cursor starts at replica 0, so the very first fan-out's
  // primary is the limper.
  const Micros start = clock.NowMicros();
  auto hits = broker.SearchAsync(h.Query(1), 5).get();
  const Micros elapsed = clock.NowMicros() - start;
  EXPECT_FALSE(hits.empty());
  // Hedge delay (5ms) + a healthy scan (~1ms) — nowhere near the limper's
  // 80ms. A generous bound still separates the two outcomes cleanly.
  EXPECT_LT(elapsed, 60'000);
  EXPECT_GE(broker.hedges(), 1u);
  EXPECT_GE(broker.hedge_wins(), 1u);
  EXPECT_GE(
      registry
          .GetCounter(obs::Labeled("jdvs_broker_hedges_total", "broker",
                                   broker.name()))
          .Value(),
      1u);
  EXPECT_GE(
      registry
          .GetCounter(obs::Labeled("jdvs_broker_hedge_wins_total", "broker",
                                   broker.name()))
          .Value(),
      1u);
}

// Every query would hedge here (both replicas are slower than the hedge
// delay), but hedging doubles backend load exactly when the backend is
// already slow — the rate cap bounds the extra load to a fraction of
// primary dispatches.
TEST(HedgingTest, RateCapBoundsHedgeVolume) {
  Searcher::Config sc;
  sc.threads = 2;
  sc.latency = LatencyModel{.base_micros = 3'000};
  TwoReplicaHarness h(sc, sc);

  Broker::Config bc;
  bc.threads = 2;
  bc.enable_hedging = true;
  bc.hedge_delay_micros = 500;
  bc.hedge_rate_cap = 0.2;
  Broker broker("b-capped", bc);
  broker.AddPartition({&h.r0, &h.r1});

  constexpr std::size_t kQueries = 50;
  for (std::size_t i = 0; i < kQueries; ++i) {
    EXPECT_FALSE(broker.SearchAsync(h.Query(i), 5).get().empty());
  }
  // 50 primaries at cap 0.2 permits ~10 hedges; slack for the race between
  // the cap check and the counter bump.
  EXPECT_LE(broker.hedges(), 14u);
  EXPECT_GE(broker.hedges_capped(), 1u);
}

// The hedge timer outlives the query budget: when it fires the deadline is
// already dead, so no hedge is dispatched — re-offering work the client
// has given up on would only amplify an overload.
TEST(HedgingTest, NoHedgeAfterDeadlineExpires) {
  Searcher::Config sc;
  sc.threads = 2;
  sc.latency = LatencyModel{.base_micros = 10'000};
  TwoReplicaHarness h(sc, sc);

  Broker::Config bc;
  bc.threads = 2;
  bc.enable_hedging = true;
  bc.hedge_delay_micros = 5'000;
  bc.hedge_rate_cap = 0.0;
  Broker broker("b-deadline", bc);
  broker.AddPartition({&h.r0, &h.r1});

  auto future = broker.SearchAsync(
      h.Query(1), 5,
      {.deadline =
           qos::Deadline::FromBudget(MonotonicClock::Instance(), 2'000)});
  EXPECT_THROW(future.get(), qos::DeadlineExceededError);
  EXPECT_EQ(broker.hedges(), 0u);
}

// 100% request loss toward one replica, no hedging — only the per-attempt
// timeout stands between the query and an indefinite hang. The timeout
// fires, the slot fails over to the sibling, and the query completes.
TEST(HedgingTest, TimeoutFailoverUnderTotalLoss) {
  Searcher::Config sc;
  sc.threads = 2;
  sc.latency = LatencyModel{.base_micros = 500};
  TwoReplicaHarness h(sc, sc);

  FaultInjector injector(33);
  injector.SetLink("b-loss", h.r0.name(),
                   LinkFaults{.drop_probability = 1.0});
  h.r0.node().set_fault_injector(&injector);

  Broker::Config bc;
  bc.threads = 2;
  // Only the blackholed replica may reach the timeout: the healthy one
  // answers in two 500 us hops plus a scan, which under CPU contention can
  // take several milliseconds.
  bc.rpc_timeout_micros = 100'000;
  Broker broker("b-loss", bc);
  broker.AddPartition({&h.r0, &h.r1});

  auto hits = broker.SearchAsync(h.Query(1), 5).get();
  EXPECT_FALSE(hits.empty());
  EXPECT_GE(broker.rpc_timeouts(), 1u);
  EXPECT_GE(broker.failovers(), 1u);
  // The timeout fed the latency EWMA at the observed cost, so the
  // blackholed replica now *looks* slow to latency-aware selection too.
  EXPECT_GT(broker.replica_latency_ewma(0, 0), 0);
}

}  // namespace
}  // namespace jdvs
