// Tiered memory/disk serving: big catalog, small residency budget.
//
// The tiered subsystem keeps the IVF head (quantizer, directory, filters)
// in RAM and leaves posting-list payloads in the mmap'd index snapshot,
// demand-paged through the hot-list residency cache (clock eviction, pins).
// This harness builds a catalog whose posting bytes are ~10x the residency
// budget, serves it from the mapped snapshot under a Zipfian query mix, and
// answers the three questions that decide whether tiering is shippable:
//
//   1. Correctness: recall@10 against the RAM-resident index (must be 1.0 —
//      eviction is advisory page release, never data loss).
//   2. Hot-path cost: warmed Zipfian QPS and p99 vs the RAM-resident
//      baseline (target: within 1.5x).
//   3. Cold-start: per-window latency + cache hit rate as the cache fills
//      from a genuinely cold mapping (drop_pages_on_load).
//
// Flags: --quick (smaller corpus + fewer queries, CI smoke), --seed=N,
// --json (also write BENCH_tiered_catalog.json).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace jdvs;
using namespace jdvs::bench;

struct Corpus {
  std::unique_ptr<IvfIndex> ram;           // RAM-resident baseline
  std::vector<FeatureVector> pool;         // distinct query vectors
  std::vector<std::vector<ImageId>> truth; // RAM top-k ids per pool entry
};

constexpr std::size_t kTopK = 10;
constexpr std::size_t kCategories = 50;
// The Zipf head of the pool queries a few hot categories, so hot traffic
// concentrates on the posting lists holding those categories' images — the
// "hot catalog slice" shape tiering is built for. Category-structured
// features (SyntheticEmbedder) matter here: on structureless gaussian data
// kmeans produces a handful of huge near-origin lists that every probe set
// shares, a single nprobe fan-out exceeds the 1/10 budget, and the cache
// thrashes regardless of query skew (recorded as a negative result in
// EXPERIMENTS.md).
constexpr std::size_t kHotCategories = 3;
constexpr std::size_t kHotPoolEntries = 24;

Corpus BuildCorpus(std::size_t images, std::size_t pool_size,
                   std::uint64_t seed) {
  constexpr std::size_t kDim = 64;
  Corpus corpus;
  Rng rng(seed);
  SyntheticEmbedder embedder(
      {.dim = kDim, .num_categories = kCategories, .seed = seed});

  IvfIndexConfig fc;
  fc.nprobe = 8;
  std::vector<FeatureVector> training;
  std::vector<FeatureVector> features;
  features.reserve(images);
  for (std::size_t i = 0; i < images; ++i) {
    const auto product = static_cast<ProductId>(i + 1);
    const auto category = static_cast<CategoryId>(i % kCategories);
    features.push_back(
        embedder.Extract({MakeImageUrl(product, 0), product, category}));
    if (training.size() < 2048) training.push_back(features.back());
  }
  KMeansConfig kc;
  kc.num_clusters = 512;  // fine list granularity: hot set ≪ budget lists
  const auto quantizer =
      std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));
  corpus.ram = std::make_unique<IvfIndex>(quantizer, fc);
  for (std::size_t i = 0; i < images; ++i) {
    const auto product = static_cast<ProductId>(i + 1);
    corpus.ram->AddImage(MakeImageUrl(product, 0), product,
                         static_cast<CategoryId>(i % kCategories),
                         SampleProductAttributes(rng), "", features[i]);
  }

  corpus.pool.reserve(pool_size);
  corpus.truth.reserve(pool_size);
  for (std::size_t q = 0; q < pool_size; ++q) {
    ProductId pid;
    CategoryId category;
    if (q < kHotPoolEntries) {
      // Hot head: queries for products in a few hot categories.
      category = static_cast<CategoryId>(q % kHotCategories);
      pid = static_cast<ProductId>(category + 1 +
                                   kCategories * (q / kHotCategories));
    } else {
      pid = static_cast<ProductId>(rng.Below(images) + 1);
      category = static_cast<CategoryId>((pid - 1) % kCategories);
    }
    FeatureVector v = embedder.ExtractQuery(pid, category, q);
    std::vector<ImageId> ids;
    for (const SearchHit& hit : corpus.ram->Search(v, kTopK)) {
      ids.push_back(hit.image_id);
    }
    corpus.pool.push_back(std::move(v));
    corpus.truth.push_back(std::move(ids));
  }
  return corpus;
}

// Zipf-ranked pick over the query pool: popular queries repeat, so their
// nprobe'd lists are the hot set the residency cache should retain.
struct ZipfPicker {
  std::vector<double> cdf;
  ZipfPicker(std::size_t n, double exponent) {
    cdf.resize(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf[r] = total;
    }
    for (double& c : cdf) c /= total;
  }
  std::size_t Pick(Rng& rng) const {
    const auto it =
        std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble());
    return static_cast<std::size_t>(it - cdf.begin());
  }
};

struct MeasureResult {
  double qps = 0.0;
  double mean_us = 0.0;
  std::int64_t p99_us = 0;
  double recall = 0.0;
};

MeasureResult Measure(IvfIndex& index, const Corpus& corpus,
                      const std::vector<std::size_t>& sequence) {
  MeasureResult out;
  const auto& clock = MonotonicClock::Instance();
  Histogram latency;
  std::size_t overlap = 0;
  std::size_t truth_total = 0;
  const Stopwatch wall(clock);
  for (const std::size_t q : sequence) {
    const Micros start = clock.NowMicros();
    const auto hits = index.Search(corpus.pool[q], kTopK);
    latency.Record(clock.NowMicros() - start);
    const auto& want = corpus.truth[q];
    truth_total += want.size();
    for (const SearchHit& hit : hits) {
      if (std::find(want.begin(), want.end(), hit.image_id) != want.end()) {
        ++overlap;
      }
    }
  }
  const double seconds = wall.ElapsedSeconds();
  out.qps =
      seconds > 0 ? static_cast<double>(sequence.size()) / seconds : 0.0;
  out.mean_us = latency.Mean();
  out.p99_us = latency.P99();
  out.recall = truth_total > 0 ? static_cast<double>(overlap) /
                                     static_cast<double>(truth_total)
                               : 0.0;
  return out;
}

Json TierStatsJson(const TieredStoreStats& s) {
  Json j = Json::Object();
  j.Set("num_lists", s.num_lists);
  j.Set("resident_lists", s.resident_lists);
  j.Set("resident_bytes", s.resident_bytes);
  j.Set("budget_bytes", s.budget_bytes);
  j.Set("payload_bytes", s.payload_bytes);
  j.Set("jdvs_tier_hits_total", s.hits);
  j.Set("jdvs_tier_misses_total", s.misses);
  j.Set("jdvs_tier_evictions_total", s.evictions);
  j.Set("jdvs_tier_probes_dropped_total", s.probes_dropped);
  j.Set("hit_rate", (s.hits + s.misses) > 0
                        ? static_cast<double>(s.hits) /
                              static_cast<double>(s.hits + s.misses)
                        : 0.0);
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

  PrintHeader("Tiered catalog: head in RAM, postings on disk",
              "full catalog served from a mapped snapshot with ~1/10 of "
              "the posting bytes resident; Zipfian mix, cold-start curve");

  const std::size_t images = quick ? 20'000 : 100'000;
  const std::size_t pool_size = quick ? 64 : 256;
  const std::size_t warm_queries = quick ? 400 : 2'000;
  const std::size_t measured_queries = quick ? 400 : 4'000;
  const std::size_t warmup_window = quick ? 50 : 200;
  const std::size_t warmup_windows = 10;
  constexpr double kZipfExponent = 1.3;

  std::printf("corpus: %zu images, dim 64, 512 lists, nprobe 8; query pool "
              "%zu, zipf s=%.1f, k=%zu\n\n",
              images, pool_size, kZipfExponent, kTopK);

  Corpus corpus = BuildCorpus(images, pool_size, seed);
  const std::string snap =
      (std::filesystem::temp_directory_path() /
       ("jdvs_bench_tiered_" + std::to_string(::getpid()) + ".snap"))
          .string();
  SaveIndexSnapshot(*corpus.ram, snap);

  // Budget: ~1/10 of the catalog's posting bytes.
  std::size_t payload_bytes = 0;
  {
    const auto probe = LoadTieredSnapshot(snap, TieredStoreConfig{});
    payload_bytes = probe->tiered_store()->Stats().payload_bytes;
  }
  TieredStoreConfig tier_config;
  tier_config.resident_bytes_budget =
      std::max<std::size_t>(1, payload_bytes / 10);
  std::printf("snapshot: %.1f MB payload on disk, residency budget %.1f MB "
              "(1/10)\n\n",
              static_cast<double>(payload_bytes) / 1e6,
              static_cast<double>(tier_config.resident_bytes_budget) / 1e6);

  // One shared Zipfian sequence so every condition sees identical traffic.
  Rng traffic(seed + 1);
  const ZipfPicker zipf(pool_size, kZipfExponent);
  std::vector<std::size_t> warm_seq(warm_queries);
  for (auto& q : warm_seq) q = zipf.Pick(traffic);
  std::vector<std::size_t> measure_seq(measured_queries);
  for (auto& q : measure_seq) q = zipf.Pick(traffic);

  // Condition 1: RAM-resident baseline.
  Measure(*corpus.ram, corpus, warm_seq);  // same cache warmth treatment
  const MeasureResult ram = Measure(*corpus.ram, corpus, measure_seq);
  std::printf("%-22s %9.0f QPS  mean %7.1f us  p99 %6lld us  recall@10 %.4f\n",
              "ram-resident", ram.qps, ram.mean_us,
              static_cast<long long>(ram.p99_us), ram.recall);

  // Condition 2: cold-start warmup curve on a fresh mapping.
  const auto cold = LoadTieredSnapshot(snap, tier_config);
  Rng cold_traffic(seed + 2);
  Json curve = Json::Array();
  std::printf("\ncold-start warmup (window = %zu queries):\n", warmup_window);
  std::printf("  %6s %10s %9s %9s\n", "window", "mean us", "hit rate",
              "resident");
  for (std::size_t w = 0; w < warmup_windows; ++w) {
    std::vector<std::size_t> window_seq(warmup_window);
    for (auto& q : window_seq) q = zipf.Pick(cold_traffic);
    const MeasureResult r = Measure(*cold, corpus, window_seq);
    const TieredStoreStats s = cold->tiered_store()->Stats();
    const double hit_rate =
        (s.hits + s.misses) > 0 ? static_cast<double>(s.hits) /
                                      static_cast<double>(s.hits + s.misses)
                                : 0.0;
    std::printf("  %6zu %10.1f %9.3f %7zu/%zu\n", w, r.mean_us, hit_rate,
                s.resident_lists, s.num_lists);
    Json row = Json::Object();
    row.Set("window", w);
    row.Set("mean_us", r.mean_us);
    row.Set("p99_us", r.p99_us);
    row.Set("recall_at_10", r.recall);
    row.Set("cumulative_hit_rate", hit_rate);
    row.Set("resident_lists", s.resident_lists);
    curve.Push(std::move(row));
  }

  // Condition 3: warmed tiered serving under the same measured traffic.
  const auto tiered = LoadTieredSnapshot(snap, tier_config);
  Measure(*tiered, corpus, warm_seq);
  const MeasureResult warm = Measure(*tiered, corpus, measure_seq);
  const TieredStoreStats tier_stats = tiered->tiered_store()->Stats();
  std::printf("\n%-22s %9.0f QPS  mean %7.1f us  p99 %6lld us  recall@10 "
              "%.4f\n",
              "tiered (warmed, 1/10)", warm.qps, warm.mean_us,
              static_cast<long long>(warm.p99_us), warm.recall);
  const double slowdown = warm.qps > 0 ? ram.qps / warm.qps : 0.0;
  const double hit_rate =
      (tier_stats.hits + tier_stats.misses) > 0
          ? static_cast<double>(tier_stats.hits) /
                static_cast<double>(tier_stats.hits + tier_stats.misses)
          : 0.0;
  std::printf("\nhot path: %.2fx of RAM-resident QPS (target <= 1.5x), tier "
              "hit rate %.3f, %llu evictions, recall delta %+.4f\n",
              slowdown, hit_rate,
              static_cast<unsigned long long>(tier_stats.evictions),
              warm.recall - ram.recall);

  if (WantJson(argc, argv)) {
    Json root = Json::Object();
    root.Set("bench", "tiered_catalog");
    root.Set("images", images);
    root.Set("query_pool", pool_size);
    root.Set("zipf_exponent", kZipfExponent);
    root.Set("k", kTopK);
    root.Set("seed", seed);
    root.Set("quick", quick);
    root.Set("payload_bytes", payload_bytes);
    root.Set("residency_budget_bytes", tier_config.resident_bytes_budget);
    Json ram_j = Json::Object();
    ram_j.Set("qps", ram.qps);
    ram_j.Set("mean_us", ram.mean_us);
    ram_j.Set("p99_us", ram.p99_us);
    ram_j.Set("recall_at_10", ram.recall);
    root.Set("ram_resident", std::move(ram_j));
    Json warm_j = Json::Object();
    warm_j.Set("qps", warm.qps);
    warm_j.Set("mean_us", warm.mean_us);
    warm_j.Set("p99_us", warm.p99_us);
    warm_j.Set("recall_at_10", warm.recall);
    warm_j.Set("qps_slowdown_vs_ram", slowdown);
    root.Set("tiered_warmed", std::move(warm_j));
    root.Set("tier_stats", TierStatsJson(tier_stats));
    root.Set("cold_start_curve", std::move(curve));
    WriteBenchJson("tiered_catalog", root);
  }

  std::filesystem::remove(snap);
  return 0;
}
