// Ablation — IVF parameters (Sections 2.2 and 2.4).
//
// The paper's searchers scan the inverted list(s) most similar to the query;
// the number of lists N (k-means classes) and the number probed (nprobe)
// trade recall against scan cost. This harness sweeps both and reports
// recall@10 versus an exhaustive scan plus the per-query latency, exposing
// the operating point the production description ("identifies the cluster
// that is most similar ... scans the cluster's inverted list") sits at.
#include <cstdio>

#include "bench_common.h"

namespace {

using namespace jdvs;

struct Sweep {
  std::size_t num_lists;
  std::size_t nprobe;
  double recall;
  double mean_us;
};

}  // namespace

int main() {
  using namespace jdvs::bench;
  PrintHeader("Ablation: IVF recall/latency vs N (lists) and nprobe",
              "single-probe cluster scan is the paper's fast path; recall "
              "grows with nprobe at linear scan cost");

  const SyntheticEmbedder embedder({.dim = 64, .num_categories = 50,
                                    .seed = 29});
  FeatureDb features(embedder, ExtractionCostModel{.mean_micros = 0});
  ProductCatalog catalog;
  ImageStore images;
  CatalogGenConfig cg;
  cg.num_products = 10000;
  cg.num_categories = 50;
  GenerateCatalog(cg, catalog, images, &features);

  const auto& clock = MonotonicClock::Instance();
  std::printf("%8s %8s %10s %12s\n", "N", "nprobe", "recall@10", "mean us");

  for (const std::size_t num_lists : {16u, 64u, 256u}) {
    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = num_lists;
    fc.training_sample = 4096;
    fc.index_config.nprobe = 1;
    FullIndexBuilder builder(catalog, images, features, fc);
    auto quantizer = builder.TrainQuantizer();
    auto index = builder.Build(quantizer);

    // Ground truth per query from the exhaustive scan.
    constexpr int kQueries = 200;
    std::vector<std::vector<ImageId>> truth(kQueries);
    std::vector<FeatureVector> queries;
    Rng rng(4);
    for (int q = 0; q < kQueries; ++q) {
      const ProductId pid = 1 + rng.Below(10000);
      const auto record = catalog.Get(pid);
      queries.push_back(embedder.ExtractQuery(pid, record->category, q));
      for (const auto& hit : index->SearchExhaustive(queries.back(), 10)) {
        truth[q].push_back(hit.image_id);
      }
    }

    for (const std::size_t nprobe : {1u, 2u, 4u, 8u, 16u}) {
      if (nprobe > num_lists) continue;
      double recall_sum = 0.0;
      Histogram latency;
      for (int q = 0; q < kQueries; ++q) {
        const Micros start = clock.NowMicros();
        const auto hits = index->Search(queries[q], 10, {.nprobe = nprobe});
        latency.Record(clock.NowMicros() - start);
        int found = 0;
        for (const ImageId id : truth[q]) {
          for (const auto& hit : hits) {
            if (hit.image_id == id) {
              ++found;
              break;
            }
          }
        }
        recall_sum += truth[q].empty()
                          ? 1.0
                          : static_cast<double>(found) /
                                static_cast<double>(truth[q].size());
      }
      std::printf("%8zu %8zu %10.3f %12.1f\n", num_lists, nprobe,
                  recall_sum / kQueries, latency.Mean());
    }
    std::printf("\n");
  }
  return 0;
}
