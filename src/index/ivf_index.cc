#include "index/ivf_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "vecmath/kernels.h"

namespace jdvs {

namespace {
// Entries per contiguous scan run. Bounds the stack distance buffer of the
// exhaustive scan: 256 rows of a 960-d (padded) feature are ~1 MB, well past
// the L2 prefetch horizon, so longer runs buy nothing.
constexpr std::size_t kScanRunEntries = 256;

// Squared L2 norm with a float64 accumulator: appended once per row and
// reused by every query, so spend the extra precision here rather than in
// the hot kernel.
float SquaredNorm(const float* v, std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<double>(v[i]) * static_cast<double>(v[i]);
  }
  return static_cast<float>(s);
}
}  // namespace

IvfIndex::IvfIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
                   const IvfIndexConfig& config)
    : quantizer_(std::move(quantizer)),
      config_(config),
      padded_dim_(PaddedDim(quantizer_->dim())),
      pad_scratch_(AllocateAligned<float>(padded_dim_)) {
  blocks_.reserve(quantizer_->num_clusters());
  for (std::size_t c = 0; c < quantizer_->num_clusters(); ++c) {
    blocks_.push_back(
        std::make_unique<ScanBlock>(row_bytes(), kScanRunEntries));
  }
}

LocalId IvfIndex::AppendMetadata(std::string_view image_url,
                                 ProductId product_id, CategoryId category,
                                 const ProductAttributes& attributes,
                                 std::string_view detail_url) {
  const ImageId image_id = Fnv1a64(image_url);
  const LocalId local = forward_.Append(image_id, product_id, category,
                                        attributes, image_url, detail_url);
  // Attribute filter index in lockstep with the forward index: same local
  // id, same tag, same numeric values.
  filters_.Append(category, attributes);
  url_to_local_.emplace(std::string(image_url), local);
  product_to_locals_[product_id].push_back(local);
  return local;
}

LocalId IvfIndex::AddImage(std::string_view image_url, ProductId product_id,
                           CategoryId category,
                           const ProductAttributes& attributes,
                           std::string_view detail_url, FeatureView feature) {
  assert(feature.size() == dim());
  // 1. "a new index element plus the product's attributes are created in the
  //    forward index. The image URL is then inserted to the buffer and the
  //    offset is recorded" (Figure 8).
  const LocalId local = AppendMetadata(image_url, product_id, category,
                                       attributes, detail_url);
  // 2. "the inverted index list that the image belongs to is calculated
  //    based on its high-dimensional features. The image ID is then added to
  //    the end of the inverted list and the last element position ... is
  //    updated in the auxiliary array" — here, the list's scan block
  //    publishes id and row together.
  const std::uint32_t list = quantizer_->NearestCentroid(feature);
  // Padded row (padding lanes stay zero: the scratch row was zero-allocated
  // and only dim() floats are rewritten) plus its norm.
  std::memcpy(pad_scratch_.get(), feature.data(), dim() * sizeof(float));
  blocks_[list]->Append(local, pad_scratch_.get(),
                        SquaredNorm(pad_scratch_.get(), dim()));
  // 3. Valid and searchable from this moment (data freshness).
  valid_.Set(local, true);
  return local;
}

bool IvfIndex::HasImage(std::string_view image_url) const {
  return url_to_local_.find(std::string(image_url)) != url_to_local_.end();
}

bool IvfIndex::HasProduct(ProductId product_id) const {
  return product_to_locals_.find(product_id) != product_to_locals_.end();
}

std::size_t IvfIndex::UpdateProductAttributes(ProductId product_id,
                                              const ProductAttributes& attributes,
                                              std::string_view detail_url) {
  const auto it = product_to_locals_.find(product_id);
  if (it == product_to_locals_.end()) return 0;
  for (const LocalId local : it->second) {
    forward_.UpdateNumeric(local, attributes);
    filters_.UpdateNumeric(local, attributes);
    if (!detail_url.empty()) forward_.UpdateDetailUrl(local, detail_url);
  }
  return it->second.size();
}

std::size_t IvfIndex::SetProductValidity(ProductId product_id, bool valid) {
  const auto it = product_to_locals_.find(product_id);
  if (it == product_to_locals_.end()) return 0;
  for (const LocalId local : it->second) valid_.Set(local, valid);
  return it->second.size();
}

bool IvfIndex::SetImageValidity(std::string_view image_url, bool valid) {
  const auto it = url_to_local_.find(std::string(image_url));
  if (it == url_to_local_.end()) return false;
  valid_.Set(it->second, valid);
  return true;
}

bool IvfIndex::IsImageValid(std::string_view image_url) const {
  const auto it = url_to_local_.find(std::string(image_url));
  return it != url_to_local_.end() && valid_.Get(it->second);
}

LocalId IvfIndex::AddImageMetadata(std::string_view image_url,
                                   ProductId product_id, CategoryId category,
                                   const ProductAttributes& attributes,
                                   std::string_view detail_url) {
  const LocalId local = AppendMetadata(image_url, product_id, category,
                                       attributes, detail_url);
  valid_.Set(local, true);
  return local;
}

void IvfIndex::RestoreList(std::size_t list, const LocalId* ids,
                           const float* norms, const std::uint8_t* payload,
                           std::size_t count) {
  assert(list < blocks_.size());
  for (std::size_t i = 0; i < count; ++i) {
    assert(ids[i] < forward_.size());
    blocks_[list]->Append(ids[i], payload + i * row_bytes(), norms[i]);
  }
}

void IvfIndex::AttachFrozenList(std::size_t list, const LocalId* ids,
                                const float* norms,
                                const std::uint8_t* payload,
                                std::size_t count) {
  assert(list < blocks_.size());
  if (count == 0) return;
  auto owned_ids = AllocateAligned<LocalId>(count);
  auto owned_norms = AllocateAligned<float>(count);
  std::memcpy(owned_ids.get(), ids, count * sizeof(LocalId));
  std::memcpy(owned_norms.get(), norms, count * sizeof(float));
  blocks_[list]->AttachFrozen(std::move(owned_ids), std::move(owned_norms),
                              payload, count);
}

void IvfIndex::ForEachScanRun(
    std::size_t list,
    const std::function<void(const LocalId*, const std::uint8_t*,
                             const float*, std::size_t)>& fn) const {
  blocks_[list]->ForEachRun(fn);
}

float* IvfIndex::QueryScratch(float* stack_buf,
                              AlignedArray<float>& heap_buf) const {
  if (padded_dim_ <= kMaxStackQueryFloats) return stack_buf;
  heap_buf = AllocateAligned<float>(padded_dim_);
  return heap_buf.get();
}

float IvfIndex::PrepareQuery(FeatureView query, float* out) const {
  assert(query.size() == dim());
  std::memcpy(out, query.data(), dim() * sizeof(float));
  std::memset(out + dim(), 0, (padded_dim_ - dim()) * sizeof(float));
  return SquaredNorm(out, dim());
}

bool IvfIndex::Admits(const Admission& admission, LocalId local,
                      bool in_alive_mask) const {
  if (admission.bits != nullptr) {
    // The bitmap already folds validity and every predicate, so admission
    // is a single mask test in place of the per-survivor checks below.
    return admission.post ? admission.bits->Test(local) : in_alive_mask;
  }
  if (config_.filter_invalid_during_scan && !valid_.Get(local)) return false;
  if (admission.direct == nullptr) return true;
  // Broad-filter direct post mode: no bitmap was materialized, so the
  // predicates are evaluated here — but only on the <= k survivors the
  // kernel admitted, which is the whole point of skipping materialization.
  const AttributeSnapshot snapshot = forward_.Get(local);
  return admission.direct->Matches(snapshot.category, snapshot.attributes);
}

void IvfIndex::ScanList(std::size_t list, const float* query_scan,
                        float query_norm, const Admission& admission,
                        FilterScanStats* stats, TopK& topk) const {
  // Fused distance + admission: the kernel computes every distance in the
  // dot form against the block's precomputed row norms and compacts the
  // candidates at or under the threshold in one sweep — no per-run distance
  // buffer, no second pass. Distances for invalid / filtered-out entries are
  // computed and then discarded — on this layout a branchless linear sweep
  // beats a per-candidate skip, and removed products are rare.
  //
  // Sub-blocks of kFilterBlock entries refresh the threshold between kernel
  // calls: on the first probed list the top-k starts empty (threshold +inf,
  // everything "survives"), and the refresh caps that flood at one
  // sub-block instead of the whole run. The threshold only tightens while
  // offering, so a sub-block's survivors are a superset; each is re-checked
  // against the freshest threshold before its Offer (the kernel admits at
  // or under the threshold — <=, because a distance tie can still displace
  // a larger id inside the heap).
  //
  // Hybrid pushdown: with a materialized filter in pre mode, the
  // sub-block's alive mask is gathered first (ids are in list-append
  // order, so each bit is a bitmap probe) and a wholly-dead sub-block skips
  // the kernel — its 64 rows are never touched.
  constexpr std::size_t kFilterBlock = 64;
  const DistanceKernels& kernels = Kernels();
  const std::size_t stride = padded_dim_;
  const bool pre = admission.bits != nullptr && !admission.post;
  blocks_[list]->ForEachRun([&](const LocalId* ids,
                                const std::uint8_t* payload,
                                const float* norms, std::size_t count) {
    const float* rows = reinterpret_cast<const float*>(payload);
    std::uint32_t keep[kFilterBlock];
    float keep_dist[kFilterBlock];
    for (std::size_t b = 0; b < count; b += kFilterBlock) {
      const std::size_t block = std::min(kFilterBlock, count - b);
      std::uint64_t alive = 0;
      if (pre) {
        for (std::size_t s = 0; s < block; ++s) {
          alive |= std::uint64_t{admission.bits->Test(ids[b + s])} << s;
        }
        if (alive == 0) {
          if (stats != nullptr) ++stats->blocks_skipped;
          continue;
        }
      }
      if (stats != nullptr) ++stats->blocks_scanned;
      float threshold = topk.Threshold();
      const std::size_t kept = kernels.l2sq_scan_filter(
          query_scan, query_norm, rows + b * stride, norms + b, stride,
          stride, block, threshold, keep, keep_dist);
      for (std::size_t s = 0; s < kept; ++s) {
        const float dist = keep_dist[s];
        if (dist > threshold) continue;
        const LocalId local = ids[b + keep[s]];
        if (!Admits(admission, local, ((alive >> keep[s]) & 1) != 0)) continue;
        topk.Offer(local, dist);
        threshold = topk.Threshold();
      }
    }
  });
}

double IvfIndex::EstimateFilterSelectivity(
    const FilterExpression& filter) const {
  const std::size_t n = forward_.size();
  if (n == 0) return 0.0;
  // Deterministic strided sample of the forward index: ~256 probes bound the
  // cost regardless of index size, and appended entries arrive in workload
  // order, so strides see a representative attribute mix.
  constexpr std::size_t kSamples = 256;
  const std::size_t step = std::max<std::size_t>(1, n / kSamples);
  std::size_t seen = 0;
  std::size_t pass = 0;
  for (std::size_t local = 0; local < n; local += step) {
    ++seen;
    const auto id = static_cast<LocalId>(local);
    if (config_.filter_invalid_during_scan && !valid_.Get(id)) continue;
    const AttributeSnapshot snapshot = forward_.Get(id);
    if (!filter.Matches(snapshot.category, snapshot.attributes)) continue;
    ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(seen);
}

IvfIndex::FilterPlan IvfIndex::PlanFilteredScan(
    const FilterExpression* filter, std::size_t nprobe_override,
    FilterScanStats* stats) const {
  const std::size_t nprobe =
      nprobe_override == 0 ? config_.nprobe : nprobe_override;
  FilterPlan plan;
  plan.nprobe = nprobe;
  if (stats != nullptr) {
    *stats = FilterScanStats{};
    stats->universe = forward_.size();
  }
  if (filter == nullptr || filter->empty()) return plan;
  // Broad filters never materialize: a sampled estimate at/above the post
  // threshold routes the query into direct post mode, where predicates run
  // only against the <= k kernel survivors and the per-query
  // ~1ms/100k-entry bitmap cost disappears.
  const double estimate = EstimateFilterSelectivity(*filter);
  if (estimate >= config_.filter_post_threshold) {
    plan.post_mode = true;
    plan.direct = filter;
    if (stats != nullptr) {
      stats->strategy = FilterScanStats::Strategy::kPost;
      stats->selectivity_bp = static_cast<std::uint32_t>(estimate * 10000.0);
      stats->estimated = true;
    }
    return plan;
  }
  const Stopwatch watch(MonotonicClock::Instance());
  // The ablation flag keeps validity out of the bitmap (deferred to
  // materialization), matching the unfiltered scan's contract.
  plan.bits = std::make_unique<const MaterializedFilter>(filters_.Materialize(
      *filter, config_.filter_invalid_during_scan ? &valid_ : nullptr));
  const Micros materialize_micros = watch.ElapsedMicros();
  const double selectivity = plan.bits->selectivity();
  if (plan.bits->matches == 0) {
    plan.empty_result = true;
  } else if (selectivity >= config_.filter_post_threshold) {
    plan.post_mode = true;
  } else if (selectivity < config_.filter_widen_threshold &&
             config_.filter_widen_factor > 1) {
    plan.nprobe = std::min(nprobe * config_.filter_widen_factor,
                           quantizer_->num_clusters());
  }
  if (stats != nullptr) {
    stats->strategy = plan.post_mode ? FilterScanStats::Strategy::kPost
                                     : FilterScanStats::Strategy::kPre;
    stats->selectivity_bp = static_cast<std::uint32_t>(selectivity * 10000.0);
    stats->matches = plan.bits->matches;
    stats->universe = plan.bits->universe;
    stats->widened_nprobe = plan.nprobe != nprobe;
    stats->materialize_micros = materialize_micros;
  }
  return plan;
}

HitList IvfIndex::MaterializeRanked(
    std::span<const ScoredImage> ranked) const {
  // Size the URL buffer first so the list is exactly two allocations. A
  // concurrent detail-URL update can change a length between the passes;
  // that only costs a regrow.
  std::size_t url_bytes = 0;
  for (const ScoredImage& scored : ranked) {
    const AttributeSnapshot snapshot =
        forward_.Get(static_cast<LocalId>(scored.image_id));
    url_bytes += snapshot.image_url.size() + snapshot.detail_url.size();
  }
  HitList hits;
  hits.Reserve(ranked.size(), url_bytes);
  for (const ScoredImage& scored : ranked) {
    const auto local = static_cast<LocalId>(scored.image_id);
    if (!config_.filter_invalid_during_scan && !valid_.Get(local)) {
      continue;  // late filtering (ablation baseline)
    }
    const AttributeSnapshot snapshot = forward_.Get(local);
    hits.Append({.image_id = snapshot.image_id,
                 .distance = scored.distance,
                 .category = snapshot.category,
                 .product_id = snapshot.product_id,
                 .attributes = snapshot.attributes},
                snapshot.image_url, snapshot.detail_url);
  }
  return hits;
}

std::vector<ScoredImage> IvfIndex::ScanProbes(
    FeatureView query, std::size_t k, std::span<const std::uint32_t> probes,
    const MaterializedFilter* filter, bool post_filter, FilterScanStats* stats,
    const FilterExpression* direct_filter) const {
  alignas(kCacheLineBytes) float stack_query[kMaxStackQueryFloats];
  AlignedArray<float> heap_query;
  float* query_scan = QueryScratch(stack_query, heap_query);
  const float query_norm = PrepareQuery(query, query_scan);
  const Admission admission{filter, post_filter, direct_filter};
  TopK topk(k);
  for (const std::uint32_t list : probes) {
    ScanList(list, query_scan, query_norm, admission, stats, topk);
  }
  return topk.TakeSorted();
}

std::vector<SearchHit> IvfIndex::Search(FeatureView query, std::size_t k,
                                        std::size_t nprobe,
                                        CategoryId category) const {
  FilterExpression scope;
  if (category != kNoCategoryFilter) scope.WithCategory(category);
  return Search(query, k, {.nprobe = nprobe, .filter = &scope});
}

std::vector<SearchHit> IvfIndex::Search(
    FeatureView query, std::size_t k, const IvfSearchOptions& options) const {
  return SearchList(query, k, options).Unpack();
}

HitList IvfIndex::SearchList(FeatureView query, std::size_t k,
                             const IvfSearchOptions& options) const {
  assert(query.size() == dim());
  const FilterPlan plan =
      PlanFilteredScan(options.filter, options.nprobe, options.filter_stats);
  // Zero matches: empty-but-successful, no scan work at all.
  if (plan.empty_result) return {};
  // "each searcher node identifies the cluster that is most similar to the
  // queried image based on its features" (Section 2.4), generalized to the
  // standard multi-probe recall knob.
  std::vector<std::uint32_t> probes =
      quantizer_->NearestCentroids(query, plan.nprobe);
  // Tiered mode: pin the probed lists before the kernel touches any row.
  // The guard keeps them evict-exempt for the whole scan; probes past the io
  // budget were dropped (reduced effective nprobe).
  TieredListStore::PinGuard guard;
  if (tiered_store_ != nullptr) {
    guard = tiered_store_->Pin(probes, options.io_budget_micros,
                               options.tier_stats);
    // Not a prefix: quarantined lists are skipped mid-set, over-budget
    // tails are dropped. Scan exactly what the guard holds pinned.
    probes = guard.pinned();
  }
  std::vector<ScoredImage> ranked =
      ScanProbes(query, k, probes, plan.bits.get(), plan.post_mode,
                 options.filter_stats, plan.direct);
  return MaterializeRanked(ranked);
}

std::vector<SearchHit> IvfIndex::SearchExhaustive(FeatureView query,
                                                  std::size_t k) const {
  return ExhaustiveScan(query, k, nullptr).Unpack();
}

std::vector<SearchHit> IvfIndex::SearchExhaustive(
    FeatureView query, std::size_t k, const FilterExpression& filter) const {
  return ExhaustiveScan(query, k, &filter).Unpack();
}

HitList IvfIndex::ExhaustiveScan(FeatureView query, std::size_t k,
                                 const FilterExpression* filter) const {
  alignas(kCacheLineBytes) float stack_query[kMaxStackQueryFloats];
  AlignedArray<float> heap_query;
  float* padded = QueryScratch(stack_query, heap_query);
  PrepareQuery(query, padded);
  const DistanceKernels& kernels = Kernels();
  const std::size_t stride = padded_dim_;
  TopK topk(k);
  // Every list's block, whole-run distances, validity always applied (ground
  // truth ignores the scan-filter ablation flag, as the seed did). Filter
  // predicates are evaluated per candidate straight off the forward index —
  // the slow, obviously-correct oracle the bitmap path is checked against.
  for (const auto& block : blocks_) {
    block->ForEachRun([&](const LocalId* ids, const std::uint8_t* payload,
                          const float* /*norms*/, std::size_t count) {
      const float* rows = reinterpret_cast<const float*>(payload);
      float dists[kScanRunEntries];
      kernels.l2sq_scan(padded, rows, stride, stride, count, dists);
      for (std::size_t j = 0; j < count; ++j) {
        if (!valid_.Get(ids[j])) continue;
        if (filter != nullptr) {
          const AttributeSnapshot snapshot = forward_.Get(ids[j]);
          if (!filter->Matches(snapshot.category, snapshot.attributes)) {
            continue;
          }
        }
        topk.Offer(static_cast<ImageId>(ids[j]), dists[j]);
      }
    });
  }
  return MaterializeRanked(topk.TakeSorted());
}

void IvfIndex::ForEachEntry(
    const std::function<void(LocalId, const AttributeSnapshot&, bool)>& visit)
    const {
  const std::size_t n = forward_.size();
  for (std::size_t local = 0; local < n; ++local) {
    const auto id = static_cast<LocalId>(local);
    visit(id, forward_.Get(id), valid_.Get(local));
  }
}

bool IvfIndex::scan_storage_aligned() const noexcept {
  for (const auto& block : blocks_) {
    if (!block->storage_aligned()) return false;
  }
  return true;
}

IvfIndexStats IvfIndex::Stats() const {
  IvfIndexStats stats;
  stats.total_images = forward_.size();
  stats.valid_images = valid_.CountValid();
  stats.num_lists = blocks_.size();
  for (const auto& block : blocks_) {
    stats.largest_list = std::max(stats.largest_list, block->size());
    stats.list_expansions += block->chunk_growths();
    stats.code_memory_bytes += block->memory_bytes();
  }
  stats.buffer_bytes = forward_.buffer_bytes_used();
  return stats;
}

std::vector<SearchHit> PostFilteredSearch(const IvfIndex& index,
                                          FeatureView query, std::size_t k,
                                          std::size_t nprobe_override,
                                          const FilterExpression& filter,
                                          FilterScanStats* stats) {
  if (stats != nullptr) {
    *stats = FilterScanStats{};
    stats->universe = index.size();
  }
  if (filter.empty()) {
    return index.Search(query, k, {.nprobe = nprobe_override});
  }
  if (stats != nullptr) stats->strategy = FilterScanStats::Strategy::kFallback;
  // Fetch a growing multiple of k and keep the hits that satisfy the
  // predicates.
  const std::size_t total = index.size();
  std::size_t fetch = std::max<std::size_t>(k * 4, 64);
  for (;;) {
    std::vector<SearchHit> raw =
        index.Search(query, fetch, {.nprobe = nprobe_override});
    std::vector<SearchHit> kept;
    kept.reserve(k);
    for (SearchHit& hit : raw) {
      if (!filter.Matches(hit.category, hit.attributes)) continue;
      kept.push_back(std::move(hit));
      if (kept.size() == k) break;
    }
    if (kept.size() == k || raw.size() < fetch || fetch >= total) {
      if (stats != nullptr) stats->matches = kept.size();
      return kept;
    }
    fetch = std::min(total, fetch * 4);
  }
}

}  // namespace jdvs
