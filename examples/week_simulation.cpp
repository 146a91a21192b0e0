// A compressed week of operation: seven diurnal days of real-time updates
// with live queries, an end-of-day full indexing cycle after each day
// (Section 2.2: "full indexing is performed periodically"), and a weekly
// summary. Demonstrates that data freshness and retrieval quality hold as
// the catalog churns day after day.
//
//   ./week_simulation [--products=2000] [--messages_per_day=3000]
#include <cstdio>

#include "jdvs/jdvs.h"

int main(int argc, char** argv) {
  using namespace jdvs;
  const Flags flags(argc, argv);

  ClusterConfig config;
  config.num_partitions = 4;
  config.num_brokers = 2;
  config.num_blenders = 2;
  config.embedder = {.dim = 32, .num_categories = 10, .seed = 14};
  config.detector = {.num_categories = 10, .top1_accuracy = 0.95};
  config.kmeans.num_clusters = 20;
  config.ivf.nprobe = 5;
  // Cheap simulated CNN so a full week replays in seconds.
  config.extraction = {.mean_micros = 1000};
  VisualSearchCluster cluster(config);

  CatalogGenConfig cg;
  cg.num_products = static_cast<std::size_t>(flags.GetInt("products", 2000));
  cg.num_categories = 10;
  cg.initial_off_market_fraction = 0.3;
  GenerateCatalog(cg, cluster.catalog(), cluster.image_store(),
                  &cluster.features());
  cluster.BuildAndInstallFullIndexes();
  cluster.Start();

  const auto messages_per_day =
      static_cast<std::uint64_t>(flags.GetInt("messages_per_day", 3000));
  std::printf("week simulation: %zu products, %llu updates/day\n\n",
              cg.num_products, (unsigned long long)messages_per_day);
  std::printf("%4s %9s %9s %9s %9s %10s %9s %10s\n", "day", "updates",
              "imgs+", "relist", "extract", "valid", "hit rate", "rebuild");

  RealTimeIndexerCounters previous;
  for (int day = 1; day <= 7; ++day) {
    DayTraceConfig tc;
    tc.total_messages = messages_per_day;
    tc.num_categories = 10;
    tc.seed = 31 + static_cast<std::uint64_t>(day);  // a different day
    DayTraceGenerator generator(tc, cluster.catalog());
    const std::uint64_t published_before = cluster.updates_published();
    generator.Generate(
        [&](const TraceEvent& e) { cluster.PublishUpdate(e.message); });
    if (!cluster.WaitForUpdatesDrained(120'000'000)) {
      std::printf("day %d: update stream did not drain!\n", day);
    }

    // Live queries against the freshly updated catalog.
    QueryWorkloadConfig qc;
    qc.num_threads = 4;
    qc.queries_per_thread = 50;
    qc.seed = 100 + static_cast<std::uint64_t>(day);
    QueryClient client(cluster, qc);
    const QueryWorkloadResult queries = client.Run();

    const RealTimeIndexerCounters now = cluster.TotalUpdateCounters();
    RealTimeIndexerCounters delta = now;
    // Day-over-day delta.
    delta.images_added -= previous.images_added;
    delta.images_revalidated -= previous.images_revalidated;
    delta.features_extracted -= previous.features_extracted;
    previous = now;

    // End-of-day full indexing cycle (weekly in production; daily here to
    // exercise the pipeline).
    const Stopwatch watch(MonotonicClock::Instance());
    cluster.RunFullIndexingCycle();
    const Micros rebuild = watch.ElapsedMicros();

    std::printf("%4d %9llu %9llu %9llu %9llu %10zu %9.2f %10s\n", day,
                (unsigned long long)(cluster.updates_published() -
                                     published_before),
                (unsigned long long)delta.images_added,
                (unsigned long long)delta.images_revalidated,
                (unsigned long long)delta.features_extracted,
                cluster.AggregateIndexStats().valid_images,
                queries.subject_hit_rate, FormatMicros(rebuild).c_str());
  }

  std::printf("\n%s", cluster.StatusReport().c_str());
  cluster.Stop();
  return 0;
}
