// Per-layer pass of a traced run: a single client calls each layer's public
// entry points, from the outside, on a quiescent cluster with the seeded
// inputs, and records one span per call (wall time) under a per-probe root.
// Derived metrics are differences of calls that nest in the program (a
// searcher RPC contains its SearchLocal; IvfIndex::Search contains probe and
// scan), taken per probe and then the median.
#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "index/ivf_index.h"
#include "obs/registry.h"
#include "perfbench.h"
#include "search/ranking.h"
#include "store/catalog.h"
#include "vecmath/aligned.h"
#include "vecmath/kernels.h"
#include "workload/catalog_gen.h"

namespace perfbench {
namespace {

constexpr std::size_t kProbeQueries = 60;
constexpr std::size_t kRtMessagesPerType = 60;
constexpr std::size_t kBuildPartitions = 5;

// Times `fn` and files it as a span; returns the wall time in microseconds.
template <typename F>
double Timed(SpanLog& spans, const char* name, std::uint64_t trace,
             std::uint64_t parent, F&& fn) {
  const std::int64_t start = NowNs();
  fn();
  const std::int64_t end = NowNs();
  spans.Add(name, trace, parent, start, end);
  return (end - start) * 1e-3;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

void RunLayerPass(jdvs::VisualSearchCluster& cluster, const Inputs& inputs,
                  std::uint64_t seed, SpanLog& spans,
                  std::vector<Metric>& out) {
  // The blender over-fetches 2k candidates from below for re-ranking; every
  // lower-tier call here asks for the same.
  const std::size_t fetch_k = 2 * kK;
  const std::size_t probes_n = std::min(kProbeQueries, inputs.recall.size());
  const std::uint64_t trace_base = 3'000'000;

  std::vector<double> query_us, query_cpu_us, broker_us, rpc_us, local_us,
      rank_us, blender_self_us, hop_self_us, broad_us, narrow_us;
  std::vector<double> broad_bp, narrow_bp;
  std::uint64_t blocks_skipped = 0, blocks_scanned = 0;
  std::vector<jdvs::FeatureVector> features;
  for (std::size_t q = 0; q < probes_n; ++q) {
    const QueryOp& op = inputs.recall[q];
    const std::uint64_t trace = trace_base + q;
    const std::uint64_t root = spans.Begin("layers.probe", trace, 0, NowNs());

    jdvs::QueryResponse response;
    jdvs::QueryOptions options;
    options.k = kK;
    const std::int64_t cpu0 = ProcessCpuNs();
    const double total = Timed(spans, "search.query", trace, root, [&] {
      response = cluster.Query(op.image, options);
    });
    query_cpu_us.push_back((ProcessCpuNs() - cpu0) * 1e-3);
    query_us.push_back(total);

    const jdvs::FeatureVector feature = cluster.embedder().ExtractQuery(
        op.image.subject_product, op.image.true_category, op.image.query_seed);
    features.push_back(feature);

    double slowest_broker = 0.0;
    for (std::size_t b = 0; b < cluster.num_brokers(); ++b) {
      const double us = Timed(spans, "search.broker", trace, root, [&] {
        cluster.broker(b).SearchAsync(feature, fetch_k).get();
      });
      broker_us.push_back(us);
      slowest_broker = std::max(slowest_broker, us);
    }

    std::vector<std::vector<jdvs::SearchHit>> partials;
    for (std::size_t p = 0; p < cluster.num_searchers(); ++p) {
      jdvs::Searcher& searcher = cluster.searcher_flat(p);
      const double rpc = Timed(spans, "search.searcher_rpc", trace, root, [&] {
        searcher.SearchAsync(feature, fetch_k).get();
      });
      std::vector<jdvs::SearchHit> hits;
      const double local = Timed(spans, "index.search_local", trace, root, [&] {
        hits = searcher.SearchLocal(feature, fetch_k);
      });
      rpc_us.push_back(rpc);
      local_us.push_back(local);
      hop_self_us.push_back(rpc - local);
      partials.push_back(std::move(hits));

      jdvs::FilterScanStats broad_stats, narrow_stats;
      broad_us.push_back(
          Timed(spans, "filter.search_local_broad", trace, root, [&] {
            searcher.SearchLocal(feature, fetch_k, 0, jdvs::kNoCategoryFilter,
                                 inputs.broad, &broad_stats);
          }));
      narrow_us.push_back(
          Timed(spans, "filter.search_local_narrow", trace, root, [&] {
            searcher.SearchLocal(feature, fetch_k, 0, jdvs::kNoCategoryFilter,
                                 inputs.narrow, &narrow_stats);
          }));
      broad_bp.push_back(broad_stats.selectivity_bp);
      narrow_bp.push_back(narrow_stats.selectivity_bp);
      blocks_skipped += narrow_stats.blocks_skipped;
      blocks_scanned += narrow_stats.blocks_scanned;
    }

    std::vector<jdvs::SearchHit> merged =
        jdvs::MergeHits(std::move(partials), fetch_k);
    const double rank = Timed(spans, "search.rank", trace, root, [&] {
      jdvs::RankResults(std::move(merged), response.detected_category,
                        cluster.config().ranking, kK);
    });
    rank_us.push_back(rank);
    blender_self_us.push_back(total - slowest_broker - rank);
    spans.End(root, NowNs());
  }

  out.push_back({"search.query_us", Median(query_us), "us"});
  out.push_back({"search.query_cpu_us", Median(query_cpu_us), "us"});
  out.push_back({"search.broker_us", Median(broker_us), "us"});
  out.push_back({"search.searcher_rpc_us", Median(rpc_us), "us"});
  out.push_back({"search.rank_us", Median(rank_us), "us"});
  out.push_back({"search.blender_self_us", Median(blender_self_us), "us"});
  out.push_back({"net.hop_self_us", Median(hop_self_us), "us"});
  out.push_back({"index.search_local_us", Median(local_us), "us"});
  out.push_back({"filter.search_local_broad_us", Median(broad_us), "us"});
  out.push_back({"filter.search_local_narrow_us", Median(narrow_us), "us"});
  out.push_back({"filter.selectivity_bp_broad", Median(broad_bp), "bp"});
  out.push_back({"filter.selectivity_bp_narrow", Median(narrow_bp), "bp"});
  out.push_back(
      {"filter.blocks_skipped_share",
       blocks_skipped + blocks_scanned == 0
           ? 0.0
           : static_cast<double>(blocks_skipped) /
                 static_cast<double>(blocks_skipped + blocks_scanned),
       "fraction"});

  // Counts the real-time path left behind in the cluster.
  const jdvs::RealTimeIndexerCounters counters = cluster.TotalUpdateCounters();
  const std::uint64_t lookups =
      counters.features_reused + counters.features_extracted;
  out.push_back({"store.feature_reuse_share",
                 lookups == 0 ? 0.0
                              : static_cast<double>(counters.features_reused) /
                                    static_cast<double>(lookups),
                 "fraction"});
  const jdvs::IvfIndexStats index_stats = cluster.AggregateIndexStats();
  out.push_back({"index.list_expansions",
                 static_cast<double>(index_stats.list_expansions), "count"});

  // Set-up layers: quantizer training and one partition's full build, then
  // that copy serves the index and kernel timings below.
  const std::uint64_t setup_trace = trace_base + probes_n;
  const double train_us = Timed(spans, "cluster.kmeans_train", setup_trace, 0,
                                [&] { cluster.TrainQuantizer(); });
  std::unique_ptr<jdvs::IvfIndex> copy;
  std::vector<double> build_us;
  for (std::size_t p = 0; p < kBuildPartitions && p < cluster.num_searchers();
       ++p) {
    build_us.push_back(
        Timed(spans, "index.partition_build", setup_trace, 0, [&] {
          auto built = cluster.BuildPartitionIndex(p);
          if (p == 0) copy = std::move(built);
        }));
  }
  out.push_back({"cluster.kmeans_train_s", train_us * 1e-6, "s"});
  out.push_back({"index.partition_build_s", Median(build_us) * 1e-6, "s"});

  const jdvs::CoarseQuantizer& quantizer = copy->quantizer();
  const std::size_t nprobe = cluster.config().ivf.nprobe;
  const std::size_t stride = copy->padded_dim();
  const jdvs::DistanceKernels& kernels = jdvs::Kernels();
  jdvs::AlignedArray<float> padded = jdvs::AllocateAligned<float>(stride);
  std::vector<double> probe_us, scan_us, materialize_us, rows;
  double kernel_ns = 0.0;
  double kernel_rows = 0.0;
  for (std::size_t q = 0; q < features.size(); ++q) {
    const jdvs::FeatureVector& feature = features[q];
    const std::uint64_t trace = trace_base + q;
    std::vector<std::uint32_t> lists;
    const double probe = Timed(spans, "cluster.coarse_probe", trace, 0, [&] {
      lists = quantizer.NearestCentroids(feature, nprobe);
    });
    std::vector<jdvs::ScoredImage> scored;
    const double scan = Timed(spans, "index.scan", trace, 0, [&] {
      scored = copy->ScanProbes(feature, fetch_k, lists);
    });
    const double search = Timed(spans, "index.ivf_search", trace, 0, [&] {
      copy->Search(feature, fetch_k, 0, jdvs::kNoCategoryFilter);
    });
    probe_us.push_back(probe);
    scan_us.push_back(scan);
    materialize_us.push_back(search - probe - scan);
    double probed_rows = 0.0;
    for (const std::uint32_t list : lists) {
      probed_rows += static_cast<double>(copy->ListEntryCount(list));
    }
    rows.push_back(probed_rows);

    // The fused scan kernel alone over every row of the partition, in the
    // scan's 64-row sub-blocks, against the query's final top-k threshold.
    std::memset(padded.get(), 0, stride * sizeof(float));
    std::memcpy(padded.get(), feature.data(), feature.size() * sizeof(float));
    float norm = 0.f;
    for (const float x : feature) norm += x * x;
    const float threshold = scored.empty()
                                ? std::numeric_limits<float>::infinity()
                                : scored.back().distance;
    std::uint32_t keep[64];
    float keep_dist[64];
    const std::int64_t start = NowNs();
    for (std::size_t list = 0; list < copy->num_lists(); ++list) {
      copy->ForEachScanRun(list, [&](const jdvs::LocalId*,
                                     const std::uint8_t* payload,
                                     const float* norms, std::size_t count) {
        const float* base = reinterpret_cast<const float*>(payload);
        for (std::size_t b = 0; b < count; b += 64) {
          kernels.l2sq_scan_filter(
              padded.get(), norm, base + b * stride, norms + b, stride,
              stride, std::min<std::size_t>(64, count - b), threshold, keep,
              keep_dist);
        }
        kernel_rows += static_cast<double>(count);
      });
    }
    kernel_ns += static_cast<double>(NowNs() - start);
    spans.Add("vecmath.scan_kernel", trace, 0, start, NowNs());
  }
  out.push_back({"cluster.coarse_probe_us", Median(probe_us), "us"});
  out.push_back({"index.scan_us", Median(scan_us), "us"});
  out.push_back({"index.materialize_us", Median(materialize_us), "us"});
  out.push_back({"index.rows_per_query", Mean(rows), "count"});
  out.push_back({"vecmath.kernel_ns_per_row",
                 kernel_rows == 0.0 ? 0.0 : kernel_ns / kernel_rows, "ns"});

  // RealTimeIndexer::Apply on the standalone copy, one message type at a
  // time: attribute update, deletion, re-listing of the deleted product
  // (revalidation, features reused), and a brand-new product (extraction).
  jdvs::obs::Registry registry;
  const jdvs::PartitionFilter owns = cluster.partitioner().FilterFor(0);
  jdvs::RealTimeIndexer indexer(*copy, cluster.features(), owns, seed,
                                jdvs::MonotonicClock::Instance(), &registry,
                                "perfbench");
  std::vector<jdvs::ProductId> ids = cluster.catalog().AllIds();
  std::sort(ids.begin(), ids.end());
  jdvs::Rng rng(jdvs::Mix64(seed ^ 0xD7));
  std::vector<double> attr_us, delete_us, relist_us, new_us;
  jdvs::ProductId next_new = ids.empty() ? 1 : ids.back() + 1;
  const std::uint64_t rt_trace = setup_trace + 1;
  for (const jdvs::ProductId id : ids) {
    if (attr_us.size() >= kRtMessagesPerType) break;
    if (!copy->HasProduct(id)) continue;
    const std::optional<jdvs::ProductRecord> record = cluster.catalog().Get(id);
    if (!record || !record->on_market) continue;
    jdvs::ProductUpdateMessage m;
    m.product_id = id;
    m.category_id = record->category;
    m.type = jdvs::UpdateType::kAttributeUpdate;
    m.attributes = jdvs::SampleProductAttributes(rng);
    attr_us.push_back(Timed(spans, "index.rt_apply_attr", rt_trace, 0,
                            [&] { indexer.Apply(m); }));
    m.type = jdvs::UpdateType::kRemoveProduct;
    delete_us.push_back(Timed(spans, "index.rt_apply_delete", rt_trace, 0,
                              [&] { indexer.Apply(m); }));
    m.type = jdvs::UpdateType::kAddProduct;
    m.image_urls = record->image_urls;
    relist_us.push_back(Timed(spans, "index.rt_apply_relist", rt_trace, 0,
                              [&] { indexer.Apply(m); }));

    // A new product with at least one image owned by partition 0.
    while (!owns(jdvs::MakeImageUrl(next_new, 0))) ++next_new;
    jdvs::ProductUpdateMessage fresh;
    fresh.type = jdvs::UpdateType::kAddProduct;
    fresh.product_id = next_new++;
    fresh.category_id = record->category;
    fresh.attributes = jdvs::SampleProductAttributes(rng);
    for (std::uint32_t k = 0; k < 5; ++k) {
      fresh.image_urls.push_back(jdvs::MakeImageUrl(fresh.product_id, k));
    }
    new_us.push_back(Timed(spans, "index.rt_apply_new", rt_trace, 0,
                           [&] { indexer.Apply(fresh); }));
  }
  out.push_back({"index.rt_apply_attr_us", Median(attr_us), "us"});
  out.push_back({"index.rt_apply_delete_us", Median(delete_us), "us"});
  out.push_back({"index.rt_apply_relist_us", Median(relist_us), "us"});
  out.push_back({"index.rt_apply_new_us", Median(new_us), "us"});
}

}  // namespace perfbench
