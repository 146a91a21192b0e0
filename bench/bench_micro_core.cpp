// Microbenchmarks (google-benchmark) for the substrate hot paths: distance
// kernels, top-k selection, bitmap, forward index, posting list (ScanBlock),
// histogram, coarse quantizer.
//
// `--roofline` switches to the kernel roofline harness instead: per-kernel
// GB/s and distances/s for every dispatch tier this CPU supports, plus the
// end-to-end IVF scan (seed-style per-entry layout vs the contiguous padded
// scan), written to BENCH_kernel_roofline.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "jdvs/jdvs.h"
#include "vecmath/aligned.h"
#include "vecmath/kernels.h"

namespace jdvs {
namespace {

FeatureVector RandomVector(Rng& rng, std::size_t dim) {
  FeatureVector v(dim);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

void BM_L2SquaredDistance(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const FeatureVector a = RandomVector(rng, dim);
  const FeatureVector b = RandomVector(rng, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2SquaredDistance(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2SquaredDistance)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_L2SquaredBatch(benchmark::State& state) {
  constexpr std::size_t kDim = 64;
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> base(kDim * count);
  for (float& x : base) x = static_cast<float>(rng.NextGaussian());
  const FeatureVector q = RandomVector(rng, kDim);
  std::vector<float> out(count);
  for (auto _ : state) {
    L2SquaredBatch(q, base.data(), kDim, count, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_L2SquaredBatch)->Arg(64)->Arg(1024);

void BM_TopKOffer(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> distances(100000);
  for (float& d : distances) d = static_cast<float>(rng.NextDouble());
  for (auto _ : state) {
    TopK topk(k);
    for (std::size_t i = 0; i < distances.size(); ++i) {
      topk.Offer(i, distances[i]);
    }
    benchmark::DoNotOptimize(topk.size());
  }
  state.SetItemsProcessed(state.iterations() * distances.size());
}
BENCHMARK(BM_TopKOffer)->Arg(10)->Arg(100);

void BM_BitmapSetGet(benchmark::State& state) {
  ValidityBitmap bitmap(1 << 20);
  Rng rng(4);
  std::size_t i = 0;
  for (auto _ : state) {
    bitmap.Set(i % (1 << 20), (i & 1) != 0);
    benchmark::DoNotOptimize(bitmap.Get((i * 7919) % (1 << 20)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapSetGet);

void BM_ForwardIndexAppend(benchmark::State& state) {
  const ProductAttributes attrs{.sales = 5, .price_cents = 100, .praise = 2};
  std::size_t i = 0;
  std::unique_ptr<ForwardIndex> index;
  for (auto _ : state) {
    if (i % 1000000 == 0) index = std::make_unique<ForwardIndex>();
    benchmark::DoNotOptimize(
        index->Append(i, i, 0, attrs, "jd://img/0/0", "jd://item/0"));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardIndexAppend);

void BM_ForwardIndexUpdateNumeric(benchmark::State& state) {
  ForwardIndex index;
  const ProductAttributes attrs{.sales = 5, .price_cents = 100, .praise = 2};
  for (int i = 0; i < 1024; ++i) {
    index.Append(i, i, 0, attrs, "u", "d");
  }
  std::size_t i = 0;
  for (auto _ : state) {
    index.UpdateNumeric(static_cast<LocalId>(i++ % 1024), attrs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardIndexUpdateNumeric);

// One padded 16-float row per entry.
using ListRow = std::array<float, 16>;

void BM_ScanBlockAppend(benchmark::State& state) {
  const ListRow row{};
  std::unique_ptr<ScanBlock> block;
  std::size_t i = 0;
  for (auto _ : state) {
    if (i % 1000000 == 0) block = std::make_unique<ScanBlock>(sizeof(row));
    block->Append(static_cast<LocalId>(i++), row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScanBlockAppend);

void BM_ScanBlockScan(benchmark::State& state) {
  const ListRow row{};
  ScanBlock block(sizeof(row));
  for (LocalId i = 0; i < (1 << 16); ++i) block.Append(i, row.data());
  for (auto _ : state) {
    std::uint64_t sum = 0;
    block.ForEachRun([&sum](const LocalId* ids, const std::uint8_t*,
                            const float*, std::size_t count) {
      for (std::size_t j = 0; j < count; ++j) sum += ids[j];
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_ScanBlockScan);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  std::size_t i = 0;
  for (auto _ : state) {
    histogram.Record(static_cast<std::int64_t>(i++ * 37 % 1000000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_QuantizerNearestCentroid(benchmark::State& state) {
  const std::size_t clusters = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDim = 64;
  Rng rng(6);
  std::vector<float> centroids(clusters * kDim);
  for (float& x : centroids) x = static_cast<float>(rng.NextGaussian());
  const CoarseQuantizer quantizer(std::move(centroids), kDim);
  const FeatureVector q = RandomVector(rng, kDim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantizer.NearestCentroid(q));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantizerNearestCentroid)->Arg(64)->Arg(256);

void BM_SyntheticEmbedderExtract(benchmark::State& state) {
  const SyntheticEmbedder embedder(
      {.dim = 64, .num_categories = 50, .seed = 1});
  const ImageContent content{"jd://img/1/0", 1, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder.Extract(content));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticEmbedderExtract);

void BM_QueryCacheLookupHit(benchmark::State& state) {
  QueryCache cache(64);
  Rng rng(14);
  const FeatureVector q = RandomVector(rng, 64);
  const auto key = cache.KeyFor(q, 10, 0);
  QueryResponse response;
  response.results.resize(10);
  cache.Insert(key, 0, response);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(key, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCacheLookupHit);

void BM_IvfSearch(benchmark::State& state) {
  const std::size_t nprobe = static_cast<std::size_t>(state.range(0));
  const SyntheticEmbedder embedder(
      {.dim = 64, .num_categories = 20, .seed = 9});
  Rng rng(9);
  std::vector<FeatureVector> sample;
  for (int i = 0; i < 1024; ++i) {
    sample.push_back(
        embedder.Extract({MakeImageUrl(i % 512, 0), static_cast<ProductId>(i % 512),
                          static_cast<CategoryId>(i % 20)}));
  }
  KMeansConfig kc;
  kc.num_clusters = 64;
  auto quantizer =
      std::make_shared<CoarseQuantizer>(TrainKMeans(sample, kc));
  IvfIndexConfig ic;
  ic.nprobe = nprobe;
  IvfIndex index(quantizer, ic);
  const ProductAttributes attrs{.sales = 1, .price_cents = 1, .praise = 1};
  for (int i = 0; i < 50000; ++i) {
    const ProductId pid = 1 + static_cast<ProductId>(i % 10000);
    const CategoryId cat = static_cast<CategoryId>(pid % 20);
    index.AddImage(MakeImageUrl(pid, static_cast<std::uint32_t>(i / 10000)),
                   pid, cat, attrs, "",
                   embedder.Extract({MakeImageUrl(pid, 9), pid, cat}));
  }
  std::size_t q = 0;
  for (auto _ : state) {
    const ProductId pid = 1 + static_cast<ProductId>(q % 10000);
    const auto query =
        embedder.ExtractQuery(pid, static_cast<CategoryId>(pid % 20), q);
    benchmark::DoNotOptimize(index.Search(query, 10));
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IvfSearch)->Arg(1)->Arg(8);

}  // namespace

// ---- Kernel roofline harness (--roofline) ----
namespace roofline {
namespace {

double Seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Seconds per call of `fn`: the median of 5 timed windows of at least
// `min_secs` each (one untimed warmup call first). The median discards
// windows inflated by scheduler noise on a shared core, which single-window
// timing cannot — ratios between rows would otherwise swing by 10%+ between
// runs.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_secs = 0.15) {
  fn();
  std::array<double, 5> windows;
  for (double& window : windows) {
    std::size_t calls = 0;
    const double start = Seconds();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = Seconds() - start;
    } while (elapsed < min_secs);
    window = elapsed / static_cast<double>(calls);
  }
  std::sort(windows.begin(), windows.end());
  return windows[2];
}

// One timed window (no medianing): the building block for paired A/B
// measurement, where the caller alternates two workloads and medians the
// per-round ratios instead of the raw times.
template <typename Fn>
double SingleWindow(Fn&& fn, double min_secs = 0.15) {
  std::size_t calls = 0;
  const double start = Seconds();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = Seconds() - start;
  } while (elapsed < min_secs);
  return elapsed / static_cast<double>(calls);
}

struct Row {
  std::string kernel;
  std::string tier;
  double gb_per_s = 0.0;
  double distances_per_s = 0.0;
  double speedup_vs_scalar = 0.0;  // same kernel, scalar tier
};

void PrintRows(const std::vector<Row>& rows) {
  std::printf("\n%-24s %-8s %12s %16s %10s\n", "kernel", "tier", "GB/s",
              "distances/s", "vs scalar");
  for (const Row& row : rows) {
    std::printf("%-24s %-8s %12.2f %16.3e %9.2fx\n", row.kernel.c_str(),
                row.tier.c_str(), row.gb_per_s, row.distances_per_s,
                row.speedup_vs_scalar);
  }
}

// Fills speedup_vs_scalar against the scalar row of the same kernel.
void AnnotateSpeedups(std::vector<Row>& rows) {
  for (Row& row : rows) {
    for (const Row& base : rows) {
      if (base.kernel == row.kernel && base.tier == "scalar") {
        row.speedup_vs_scalar = row.distances_per_s / base.distances_per_s;
      }
    }
  }
}

// Per-kernel rates for one query against a row array of the given footprint
// (cache-resident and spilled variants are both reported — the scan is
// compute-bound in the first regime and bandwidth-bound in the second), per
// dispatch tier this CPU can run.
std::vector<Row> KernelRows(std::size_t dim, std::size_t rows_count,
                            const char* regime) {
  const std::size_t padded = PaddedDim(dim);
  Rng rng(17);
  AlignedArray<float> base = AllocateAligned<float>(rows_count * padded);
  for (std::size_t r = 0; r < rows_count; ++r) {
    for (std::size_t d = 0; d < dim; ++d) {
      base.get()[r * padded + d] = static_cast<float>(rng.NextGaussian());
    }
  }
  AlignedArray<float> query = AllocateAligned<float>(padded);
  for (std::size_t d = 0; d < dim; ++d) {
    query.get()[d] = static_cast<float>(rng.NextGaussian());
  }

  std::vector<float> out(rows_count);
  std::vector<Row> result;
  const std::string dim_tag = "/d" + std::to_string(dim) + "/" + regime;
  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    const DistanceKernels* kernels = KernelsForTier(tier);
    if (kernels == nullptr) continue;  // CPU can't run this tier
    const double row_bytes = static_cast<double>(padded) * sizeof(float);

    const double l2_secs = TimePerCall([&] {
      for (std::size_t r = 0; r < rows_count; ++r) {
        out[r] = kernels->l2sq(query.get(), base.get() + r * padded, padded);
      }
      benchmark::DoNotOptimize(out.data());
    });
    result.push_back({"l2sq" + dim_tag, KernelTierName(tier),
                      rows_count * row_bytes / l2_secs / 1e9,
                      rows_count / l2_secs});

    const double b4_secs = TimePerCall([&] {
      for (std::size_t r = 0; r + 4 <= rows_count; r += 4) {
        kernels->l2sq_batch4(query.get(), base.get() + r * padded, padded,
                             padded, out.data() + r);
      }
      benchmark::DoNotOptimize(out.data());
    });
    result.push_back({"l2sq_batch4" + dim_tag, KernelTierName(tier),
                      rows_count * row_bytes / b4_secs / 1e9,
                      rows_count / b4_secs});
  }
  return result;
}

// End-to-end single-searcher IVF scan. The "seed" rows reproduce the
// pre-refactor layout faithfully: per-entry id indirection into an unpadded
// row array, one scalar distance call per entry, validity checked per entry.
// The "ivf_scan" rows run the real IvfIndex under each forced tier.
//
// The seed's TopK::Offer lived in topk.cc, so every candidate paid an
// out-of-line call; today's header-inline TopK would silently erase that
// cost from the mirror and flatter the refactored path's speedup baseline
// in the wrong direction — the mirror would run ~15% faster than the seed
// binary actually does. SeedTopK restores the call boundary. Validated
// against the seed commit built directly: seed binary scan stage measured
// 19.8us/query; the mirror with this wrapper lands within noise of that.
struct SeedTopK {
  explicit SeedTopK(std::size_t k) : topk(k) {}
  __attribute__((noinline)) void Offer(LocalId id, float distance) {
    topk.Offer(id, distance);
  }
  TopK topk;
};
// The seed's posting list: a growing id array whose Scan invoked a
// std::function per entry, compiled in its own translation unit. Scan stays
// out of line so each entry still pays that indirect call.
class SeedList {
 public:
  void Append(LocalId id) { ids_.push_back(id); }
  __attribute__((noinline)) void Scan(
      const std::function<void(LocalId)>& visit) const {
    for (const LocalId id : ids_) visit(id);
  }

 private:
  std::vector<LocalId> ids_;
};
struct IvfRows {
  std::vector<Row> rows;
  double seed_scalar_qps = 0.0;
  double avx2_qps = 0.0;
  // Headline speedup from paired alternating windows (median of per-round
  // ratios) — robust against machine-load phases that span whole rows.
  double avx2_vs_seed_paired = 0.0;
};

IvfRows IvfScanRows() {
  // One searcher of the paper's testbed: 100k images over 20 partitions =
  // 5k images/searcher at dim 64, 64 coarse clusters, nprobe 8.
  constexpr std::size_t kDim = 64, kClusters = 64, kImages = 5000;
  constexpr std::size_t kNprobe = 8, kK = 10, kQueries = 256;
  const SyntheticEmbedder embedder({.dim = kDim, .num_categories = 20,
                                    .seed = 9});
  Rng rng(9);
  std::vector<FeatureVector> sample;
  for (int i = 0; i < 1024; ++i) {
    sample.push_back(embedder.Extract(
        {MakeImageUrl(i % 512, 0), static_cast<ProductId>(i % 512),
         static_cast<CategoryId>(i % 20)}));
  }
  KMeansConfig kc;
  kc.num_clusters = kClusters;
  auto quantizer = std::make_shared<CoarseQuantizer>(TrainKMeans(sample, kc));

  IvfIndexConfig ic;
  ic.nprobe = kNprobe;
  IvfIndex index(quantizer, ic);
  // Seed-style mirror built from the repo's own primitives, reproducing the
  // pre-refactor scan path cost for cost: the seed list's per-entry
  // std::function callback, VectorSet::At's chunk indirection, and one
  // dispatched L2SquaredDistance wrapper call per candidate.
  std::vector<SeedList> seed_lists(kClusters);
  VectorSet seed_features(kDim);
  const ProductAttributes attrs{.sales = 1, .price_cents = 1, .praise = 1};
  for (std::size_t i = 0; i < kImages; ++i) {
    const ProductId pid = 1 + static_cast<ProductId>(i % 10000);
    const CategoryId cat = static_cast<CategoryId>(pid % 20);
    const std::string url =
        MakeImageUrl(pid, static_cast<std::uint32_t>(i / 10000));
    const FeatureVector feature = embedder.Extract({url, pid, cat});
    index.AddImage(url, pid, cat, attrs, "", feature);
    seed_lists[quantizer->NearestCentroid(feature)].Append(
        static_cast<LocalId>(i));
    seed_features.Append(feature);
  }
  ValidityBitmap valid(kImages);
  for (std::size_t i = 0; i < kImages; ++i) valid.Set(i, true);

  std::vector<FeatureVector> queries;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const ProductId pid = 1 + static_cast<ProductId>(q % 10000);
    queries.push_back(
        embedder.ExtractQuery(pid, static_cast<CategoryId>(pid % 20), q));
  }

  // Probes precomputed once: the scan-stage rows compare scan against scan
  // with identical probe sets on both layouts.
  std::vector<std::vector<std::uint32_t>> probe_sets;
  probe_sets.reserve(queries.size());
  for (const FeatureVector& q : queries) {
    probe_sets.push_back(quantizer->NearestCentroids(
        FeatureView(q.data(), q.size()), kNprobe));
  }

  IvfRows result;
  const KernelTier restore = ActiveKernelTier();
  ForceKernelTier(KernelTier::kScalar);  // the seed's distance was scalar

  // Seed scan stage — the verbatim pre-refactor ScanList body (per-entry
  // callback -> validity -> At() -> wrapper distance -> Offer).
  const auto seed_stage_pass = [&] {
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const FeatureView qview(queries[qi].data(), queries[qi].size());
      SeedTopK topk(kK);
      for (const std::uint32_t list : probe_sets[qi]) {
        seed_lists[list].Scan([&](LocalId local) {
          if (!valid.Get(local)) return;
          topk.Offer(local,
                     L2SquaredDistance(qview, seed_features.At(local)));
        });
      }
      benchmark::DoNotOptimize(topk.topk.size());
    }
  };
  const auto contiguous_stage_pass = [&] {
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      benchmark::DoNotOptimize(
          index.ScanProbes(queries[qi], kK, probe_sets[qi]));
    }
  };
  const double seed_stage_secs = TimePerCall(seed_stage_pass);
  result.seed_scalar_qps = kQueries / seed_stage_secs;
  result.rows.push_back({"scan_stage/seed_layout", "scalar", 0.0,
                         kQueries / seed_stage_secs, 0.0});

  // Seed full query: probe + scan (no materialize: the mirror carries no
  // forward index, which flatters the baseline — conservative for us).
  const double seed_full_secs = TimePerCall([&] {
    for (const FeatureVector& q : queries) {
      const FeatureView qview(q.data(), q.size());
      SeedTopK topk(kK);
      for (const std::uint32_t list : quantizer->NearestCentroids(q, kNprobe)) {
        seed_lists[list].Scan([&](LocalId local) {
          if (!valid.Get(local)) return;
          topk.Offer(local,
                     L2SquaredDistance(qview, seed_features.At(local)));
        });
      }
      benchmark::DoNotOptimize(topk.topk.size());
    }
  });
  result.rows.push_back({"full_query/seed_layout", "scalar", 0.0,
                         kQueries / seed_full_secs, 0.0});

  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!ForceKernelTier(tier)) continue;

    // Scan stage on the contiguous layout, same precomputed probes.
    const double stage_secs = TimePerCall(contiguous_stage_pass);
    result.rows.push_back({"scan_stage/contiguous", KernelTierName(tier), 0.0,
                           kQueries / stage_secs, 0.0});
    if (tier == KernelTier::kAvx2) result.avx2_qps = kQueries / stage_secs;

    // Full query through the public API (probe + scan + materialize).
    const double secs = TimePerCall([&] {
      for (const FeatureVector& q : queries) {
        benchmark::DoNotOptimize(index.Search(q, kK));
      }
    });
    result.rows.push_back({"full_query/contiguous", KernelTierName(tier), 0.0,
                           kQueries / secs, 0.0});
  }
  // Headline ratio from paired windows: seed and AVX2 alternate within each
  // round, so a machine-load phase hits both arms of a ratio equally; the
  // median per-round ratio survives noise that row-at-a-time medians cannot
  // (a whole row's windows can land inside one slow phase).
  if (KernelsForTier(KernelTier::kAvx2) != nullptr) {
    std::array<double, 7> ratios;
    for (double& ratio : ratios) {
      ForceKernelTier(KernelTier::kScalar);
      const double seed_secs = SingleWindow(seed_stage_pass);
      ForceKernelTier(KernelTier::kAvx2);
      const double avx2_secs = SingleWindow(contiguous_stage_pass);
      ratio = seed_secs / avx2_secs;
    }
    std::sort(ratios.begin(), ratios.end());
    result.avx2_vs_seed_paired = ratios[ratios.size() / 2];
  }
  ForceKernelTier(restore);

  // Speedups: scan_stage rows against the seed scan stage (the number the
  // layout+kernel rebuild is accountable for); full_query rows against the
  // seed full query.
  const double seed_full_qps = kQueries / seed_full_secs;
  for (Row& row : result.rows) {
    const bool stage = row.kernel.rfind("scan_stage/", 0) == 0;
    row.speedup_vs_scalar = row.distances_per_s /
                            (stage ? result.seed_scalar_qps : seed_full_qps);
  }
  return result;
}

int Run() {
  bench::PrintHeader(
      "bench_micro_core --roofline: kernel dispatch tiers",
      "Section 3.2 single-searcher scan cost; SIMD rebuild of the compute "
      "path");
  std::printf("resolved dispatch tier: %s\n",
              KernelTierName(ActiveKernelTier()));

  std::vector<Row> kernel_rows;
  // (dim, rows, regime): testbed dim 64 both cache-resident (1 MB, the
  // per-searcher partition size of the paper's 20-way testbed) and spilled
  // (8 MB); paper dim 960 spilled (30 MB).
  struct Shape { std::size_t dim, rows; const char* regime; };
  for (const Shape shape : {Shape{64, 4096, "hot"}, Shape{64, 32768, "cold"},
                            Shape{960, 8192, "cold"}}) {
    for (Row& row : KernelRows(shape.dim, shape.rows, shape.regime)) {
      kernel_rows.push_back(std::move(row));
    }
  }
  AnnotateSpeedups(kernel_rows);
  PrintRows(kernel_rows);

  IvfRows ivf = IvfScanRows();
  std::printf("\nend-to-end single-searcher IVF scan (5k x 64d testbed "
              "partition, nprobe 8); distances/s column = QPS; scan_stage "
              "rows exclude probe+materialize on both layouts:\n");
  PrintRows(ivf.rows);
  if (ivf.avx2_vs_seed_paired > 0.0) {
    std::printf("\nAVX2 contiguous scan stage vs seed scalar scan stage "
                "(paired windows): %.2fx\n",
                ivf.avx2_vs_seed_paired);
  }

  bench::Json root = bench::Json::Object();
  root.Set("bench", "kernel_roofline");
  root.Set("resolved_tier", KernelTierName(ActiveKernelTier()));
  bench::Json rows_json = bench::Json::Array();
  for (const std::vector<Row>* group : {&kernel_rows, &ivf.rows}) {
    for (const Row& row : *group) {
      bench::Json j = bench::Json::Object();
      j.Set("kernel", row.kernel);
      j.Set("tier", row.tier);
      if (row.gb_per_s > 0.0) j.Set("gb_per_s", row.gb_per_s);
      j.Set("distances_per_s", row.distances_per_s);
      j.Set("speedup_vs_scalar", row.speedup_vs_scalar);
      rows_json.Push(std::move(j));
    }
  }
  root.Set("rows", std::move(rows_json));
  root.Set("ivf_avx2_vs_seed_scalar", ivf.avx2_vs_seed_paired);
  bench::WriteBenchJson("kernel_roofline", root);
  return 0;
}

}  // namespace
}  // namespace roofline
}  // namespace jdvs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--roofline") {
      return jdvs::roofline::Run();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
