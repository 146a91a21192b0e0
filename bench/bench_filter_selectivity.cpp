// Hybrid filtered search: selectivity sweep.
//
// Structured predicates ("price <= X and sales >= Y") conjoined with the
// visual query change the scan's economics with the filter's selectivity.
// This harness sweeps three regimes — ~50% (broad), ~5% (narrow), ~0.1%
// (needle) — over the flat IVF and the IVF-PQ index, and compares bitmap
// predicate pushdown (materialize once, skip wholly-dead 64-entry
// sub-blocks, widen nprobe when the filter is starving the probe set)
// against the naive baseline: search unfiltered, post-filter the hits, and
// re-scan with 4x the fetch depth until k survivors accumulate
// (PostFilteredSearch).
//
// Attributes are drawn from the workload generator's Zipf-like sampler, so
// the thresholds are picked from the sampled distribution's quantiles the
// way a merchandiser's filter would land on real traffic.
//
// Flags: --quick (smaller corpus + fewer queries, CI smoke), --seed=N,
// --json (also write BENCH_filter_selectivity.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace jdvs;
using namespace jdvs::bench;

struct Corpus {
  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::shared_ptr<const ProductQuantizer> pq;
  std::unique_ptr<IvfIndex> flat;
  std::unique_ptr<IvfIndex> ivfpq;
  std::vector<std::uint64_t> sales_sorted;  // for quantile thresholds
  std::vector<FeatureVector> queries;
};

Corpus BuildCorpus(std::size_t images, std::size_t num_queries,
                   std::uint64_t seed) {
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kClusters = 64;
  Corpus corpus;
  Rng rng(seed);

  std::vector<FeatureVector> training;
  training.reserve(2048);
  for (std::size_t i = 0; i < 2048; ++i) {
    FeatureVector v(kDim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    training.push_back(std::move(v));
  }
  KMeansConfig kc;
  kc.num_clusters = kClusters;
  corpus.quantizer =
      std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));
  ProductQuantizerConfig pc;
  pc.num_subspaces = 8;
  pc.codebook_size = 64;
  corpus.pq = std::make_shared<ProductQuantizer>(
      ProductQuantizer::Train(training, pc));

  IvfIndexConfig fc;
  fc.nprobe = 8;
  corpus.flat = std::make_unique<IvfIndex>(corpus.quantizer, fc);
  IvfIndexConfig qc;
  qc.nprobe = 8;
  corpus.ivfpq = std::make_unique<IvfIndex>(corpus.quantizer, corpus.pq, qc);

  for (std::size_t i = 0; i < images; ++i) {
    const auto product = static_cast<ProductId>(i + 1);
    const ProductAttributes attrs = SampleProductAttributes(rng);
    FeatureVector v(kDim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    const std::string url = MakeImageUrl(product, 0);
    const auto category = static_cast<CategoryId>(i % 50);
    corpus.flat->AddImage(url, product, category, attrs, "", v);
    corpus.ivfpq->AddImage(url, product, category, attrs, "", v);
    corpus.sales_sorted.push_back(attrs.sales);
  }
  std::sort(corpus.sales_sorted.begin(), corpus.sales_sorted.end());

  corpus.queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    FeatureVector v(kDim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    corpus.queries.push_back(std::move(v));
  }
  return corpus;
}

struct SweepRow {
  const char* regime;
  double target_selectivity;
  const char* engine;  // "flat" | "ivfpq"
  const char* mode;    // "pushdown" | "naive"
  double qps = 0.0;
  double mean_us = 0.0;
  std::int64_t p99_us = 0;
  double hits_mean = 0.0;
  double actual_selectivity = 0.0;
  std::string strategy{};  // pushdown only
  double blocks_skipped_mean = 0.0;
  std::uint64_t widened = 0;
  std::uint64_t estimated = 0;  // queries planned via the selectivity probe
};

template <typename SearchFn>
SweepRow Measure(const char* regime, double target, const char* engine,
                 const char* mode, const std::vector<FeatureVector>& queries,
                 std::size_t k, SearchFn&& search) {
  SweepRow row{regime, target, engine, mode};
  const auto& clock = MonotonicClock::Instance();
  Histogram latency;
  std::size_t hits_total = 0;
  const Stopwatch wall(clock);
  for (const FeatureVector& q : queries) {
    const Micros start = clock.NowMicros();
    hits_total += search(q, k);
    latency.Record(clock.NowMicros() - start);
  }
  const double seconds = wall.ElapsedSeconds();
  row.qps = seconds > 0 ? static_cast<double>(queries.size()) / seconds : 0.0;
  row.mean_us = latency.Mean();
  row.p99_us = latency.P99();
  row.hits_mean =
      static_cast<double>(hits_total) / static_cast<double>(queries.size());
  return row;
}

void PrintRow(const SweepRow& row) {
  std::printf("%8s %6s %9s %9.0f %9.1f %8lld %7.1f %10s %8.1f\n", row.regime,
              row.engine, row.mode, row.qps, row.mean_us,
              static_cast<long long>(row.p99_us), row.hits_mean,
              row.strategy.empty() ? "-" : row.strategy.c_str(),
              row.blocks_skipped_mean);
}

Json RowJson(const SweepRow& row) {
  Json j = Json::Object();
  j.Set("regime", row.regime);
  j.Set("target_selectivity", row.target_selectivity);
  j.Set("actual_selectivity", row.actual_selectivity);
  j.Set("engine", row.engine);
  j.Set("mode", row.mode);
  j.Set("qps", row.qps);
  j.Set("mean_us", row.mean_us);
  j.Set("p99_us", row.p99_us);
  j.Set("hits_mean", row.hits_mean);
  if (!row.strategy.empty()) {
    j.Set("strategy", row.strategy);
    j.Set("blocks_skipped_mean", row.blocks_skipped_mean);
    j.Set("widened_nprobe_queries", row.widened);
    j.Set("estimated_plan_queries", row.estimated);
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jdvs;
  using namespace jdvs::bench;

  bool quick = false;
  std::uint64_t seed = 2018;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.data() + 7, nullptr, 10);
    }
  }

  PrintHeader("Hybrid filtered search: selectivity sweep",
              "structured attribute predicates conjoined with the visual "
              "query (category + sales/price/praise ranges)");

  const std::size_t images = quick ? 20'000 : 100'000;
  const std::size_t num_queries = quick ? 200 : 1'000;
  constexpr std::size_t kTopK = 10;
  std::printf("corpus: %zu images, dim 64, 64 lists, nprobe 8; %zu queries "
              "per cell, k=%zu\n\n",
              images, num_queries, kTopK);
  Corpus corpus = BuildCorpus(images, num_queries, seed);

  // Thresholds from the sampled sales distribution's quantiles: a predicate
  // "sales >= q(1-s)" matches a ~s fraction of the corpus.
  struct Regime {
    const char* name;
    double selectivity;
  };
  const Regime regimes[] = {{"50%", 0.5}, {"5%", 0.05}, {"0.1%", 0.001}};

  std::printf("%8s %6s %9s %9s %9s %8s %7s %10s %8s\n", "regime", "engine",
              "mode", "QPS", "mean us", "p99 us", "hits", "strategy",
              "blk skip");
  Json rows = Json::Array();
  std::vector<SweepRow> all_rows;
  for (const Regime& regime : regimes) {
    const std::size_t rank = std::min(
        corpus.sales_sorted.size() - 1,
        static_cast<std::size_t>((1.0 - regime.selectivity) *
                                 static_cast<double>(images)));
    FilterExpression filter;
    filter.WithMin(FilterField::kSales, corpus.sales_sorted[rank]);
    const double actual =
        static_cast<double>(corpus.sales_sorted.end() -
                            std::lower_bound(corpus.sales_sorted.begin(),
                                             corpus.sales_sorted.end(),
                                             corpus.sales_sorted[rank])) /
        static_cast<double>(images);

    // Per-cell stats accumulators for the pushdown rows.
    std::uint64_t blocks_skipped = 0;
    std::uint64_t widened = 0;
    std::uint64_t estimated = 0;
    FilterScanStats::Strategy last_strategy = FilterScanStats::Strategy::kNone;
    const auto pushdown_stats = [&](const FilterScanStats& stats) {
      blocks_skipped += stats.blocks_skipped;
      widened += stats.widened_nprobe ? 1 : 0;
      estimated += stats.estimated ? 1 : 0;
      last_strategy = stats.strategy;
    };
    const auto finish_pushdown = [&](SweepRow& row) {
      row.actual_selectivity = actual;
      row.strategy = FilterStrategyName(last_strategy);
      row.blocks_skipped_mean = static_cast<double>(blocks_skipped) /
                                static_cast<double>(num_queries);
      row.widened = widened;
      row.estimated = estimated;
      blocks_skipped = 0;
      widened = 0;
      estimated = 0;
    };

    SweepRow row = Measure(
        regime.name, regime.selectivity, "flat", "pushdown", corpus.queries,
        kTopK, [&](const FeatureVector& q, std::size_t k) {
          FilterScanStats stats;
          const auto hits =
              corpus.flat->Search(q, k,
                                  {.filter = &filter, .filter_stats = &stats});
          pushdown_stats(stats);
          return hits.size();
        });
    finish_pushdown(row);
    PrintRow(row);
    rows.Push(RowJson(row));
    all_rows.push_back(row);

    row = Measure(regime.name, regime.selectivity, "flat", "naive",
                  corpus.queries, kTopK,
                  [&](const FeatureVector& q, std::size_t k) {
                    return PostFilteredSearch(*corpus.flat, q, k, 0, filter)
                        .size();
                  });
    row.actual_selectivity = actual;
    PrintRow(row);
    rows.Push(RowJson(row));
    all_rows.push_back(row);

    row = Measure(
        regime.name, regime.selectivity, "ivfpq", "pushdown", corpus.queries,
        kTopK, [&](const FeatureVector& q, std::size_t k) {
          FilterScanStats stats;
          const auto hits =
              corpus.ivfpq->Search(q, k,
                                   {.filter = &filter, .filter_stats = &stats});
          pushdown_stats(stats);
          return hits.size();
        });
    finish_pushdown(row);
    PrintRow(row);
    rows.Push(RowJson(row));
    all_rows.push_back(row);

    row = Measure(regime.name, regime.selectivity, "ivfpq", "naive",
                  corpus.queries, kTopK,
                  [&](const FeatureVector& q, std::size_t k) {
                    return PostFilteredSearch(*corpus.ivfpq, q, k, 0, filter)
                        .size();
                  });
    row.actual_selectivity = actual;
    PrintRow(row);
    rows.Push(RowJson(row));
    all_rows.push_back(row);
  }

  // Headline comparisons. At needle selectivity the naive baseline re-scans
  // with escalating fetch depth (most hits fail the predicate) and
  // under-fills k, while pushdown skips dead sub-blocks and widens nprobe.
  // At broad selectivity the planner's sampled estimate picks the direct
  // post-filter mode (no bitmap materialization) and must still beat naive
  // over-fetch — the pay-off of the selectivity probe.
  const auto summarize = [&all_rows](const char* regime_name) {
    Json per_engine = Json::Object();
    for (const char* engine : {"flat", "ivfpq"}) {
      double push_qps = 0.0;
      double naive_qps = 0.0;
      double push_hits = 0.0;
      double naive_hits = 0.0;
      for (const SweepRow& row : all_rows) {
        if (std::strcmp(row.regime, regime_name) != 0 ||
            std::strcmp(row.engine, engine) != 0) {
          continue;
        }
        (std::strcmp(row.mode, "pushdown") == 0 ? push_qps : naive_qps) =
            row.qps;
        (std::strcmp(row.mode, "pushdown") == 0 ? push_hits : naive_hits) =
            row.hits_mean;
      }
      Json j = Json::Object();
      j.Set("pushdown_qps", push_qps);
      j.Set("naive_qps", naive_qps);
      j.Set("qps_ratio", naive_qps > 0 ? push_qps / naive_qps : 0.0);
      j.Set("pushdown_hits_mean", push_hits);
      j.Set("naive_hits_mean", naive_hits);
      per_engine.Set(engine, std::move(j));
      std::printf("\n%s @%s: pushdown %.0f QPS vs naive %.0f QPS (%.1fx), "
                  "hits %.1f vs %.1f",
                  engine, regime_name, push_qps, naive_qps,
                  naive_qps > 0 ? push_qps / naive_qps : 0.0, push_hits,
                  naive_hits);
    }
    return per_engine;
  };
  Json speedups = summarize("0.1%");
  Json broad = summarize("50%");
  std::printf("\n");

  if (WantJson(argc, argv)) {
    Json root = Json::Object();
    root.Set("bench", "filter_selectivity");
    root.Set("images", images);
    root.Set("queries_per_cell", num_queries);
    root.Set("k", kTopK);
    root.Set("seed", seed);
    root.Set("quick", quick);
    root.Set("rows", std::move(rows));
    root.Set("needle_regime_summary", std::move(speedups));
    root.Set("broad_regime_summary", std::move(broad));
    WriteBenchJson("filter_selectivity", root);
  }
  return 0;
}
