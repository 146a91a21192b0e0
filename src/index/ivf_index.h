// Per-partition IVF index: the unit a searcher owns.
//
// Combines everything Sections 2.2-2.4 describe for one partition of the
// image set: the coarse quantizer (k-means classes), the N inverted lists,
// the forward index with product attributes, the per-image feature store
// (needed to compute distances during the inverted-list scan), and the
// validity bitmap.
//
// Scan layout: each inverted list is stored exactly once, as a ScanBlock
// holding its members' ids and payload rows contiguously in append order,
// 64-byte aligned, so the hot loop is a linear, prefetch-friendly sweep
// through the runtime-dispatched batch kernels (vecmath/kernels.h) instead
// of a per-candidate pointer chase. The payload is the index's list codec,
// fixed at construction by whether a trained ProductQuantizer is given:
//
//  * flat (no quantizer): rows of padded_dim() floats with zeroed padding,
//    plus each row's squared norm, scanned by the fused l2sq_scan_filter
//    kernel — the paper's exact-distance index;
//  * PQ: code_bytes() PQ codes per row (a 64-d float feature, 256 B,
//    compresses to 8-16 B — what makes the paper's "100 billion images"
//    scale feasible), scanned by pq_adc_scan against a per-query
//    asymmetric-distance (ADC) table. With `rerank_candidates > 0` the index
//    also keeps every raw feature and re-scores that many ADC candidates
//    exactly — the IVFADC+R recipe.
//
// The codec branches only where the payload is touched: append, per-query
// setup, the per-list scan and the rerank finish. Metadata writes, filter
// planning, tier pinning and materialization are shared.
//
// Concurrency contract (matching the paper's architecture): exactly one
// writer — the searcher applies every index mutation, both real-time updates
// and re-additions — and any number of concurrent reader threads executing
// Search(). All reader-visible state is published via atomics; Search never
// takes a lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/quantizer.h"
#include "common/clock.h"
#include "filter/attribute_filter_index.h"
#include "index/bitmap.h"
#include "index/forward_index.h"
#include "index/image_index.h"
#include "index/scan_block.h"
#include "mq/message.h"
#include "pq/codebook.h"
#include "tier/tiered_store.h"
#include "vecmath/aligned.h"
#include "vecmath/topk.h"
#include "vecmath/vector.h"
#include "vecmath/vector_set.h"

namespace jdvs {

struct IvfIndexConfig {
  // Number of inverted lists probed per search (recall knob).
  std::size_t nprobe = 4;
  // When false, the validity bitmap is ignored during the scan and invalid
  // images are filtered only when materializing results — the "no bitmap
  // optimization" ablation baseline.
  bool filter_invalid_during_scan = true;
  // ---- Hybrid filter pushdown strategy knobs ----
  // Selectivity (matching fraction) at or above which the scan post-filters
  // kernel survivors instead of evaluating the bitmap per sub-block: when
  // almost everything passes, per-survivor tests are cheaper than
  // per-candidate mask gathering.
  double filter_post_threshold = 0.5;
  // Selectivity below which nprobe is widened (probed lists multiplied by
  // filter_widen_factor, clamped to the list count) so k results can still
  // be found under an extreme filter.
  double filter_widen_threshold = 0.01;
  std::size_t filter_widen_factor = 4;
  // PQ codec only (the flat codec ignores it): 0 ranks purely by ADC
  // distance; otherwise this many ADC candidates are re-ranked with exact
  // distances, and the index keeps every raw feature for that purpose.
  std::size_t rerank_candidates = 0;
};

struct IvfIndexStats {
  std::size_t total_images = 0;    // forward index entries
  std::size_t valid_images = 0;    // bitmap population
  std::size_t num_lists = 0;
  std::size_t largest_list = 0;
  // Scan-storage chunk growths past each list's first chunk, summed.
  std::uint64_t list_expansions = 0;
  std::size_t buffer_bytes = 0;
  // List codec footprint: payload bytes per entry (padded float row or PQ
  // code), heap bytes allocated by the lists' scan storage (ids, payload
  // and norms; mapped tiered payload excluded), and the PQ rerank store.
  std::size_t code_bytes_per_vector = 0;
  std::size_t code_memory_bytes = 0;
  std::size_t raw_memory_bytes = 0;
};

// Every per-query knob of IvfIndex::Search. The defaults give the plain
// unfiltered top-k at the configured nprobe.
struct IvfSearchOptions {
  std::size_t nprobe = 0;  // 0 = IvfIndexConfig::nprobe
  // Structured predicates, a category scope among them (WithCategory);
  // null or empty = unfiltered. Must outlive the call.
  const FilterExpression* filter = nullptr;
  // Receives the filter plan's diagnostics (strategy, selectivity, skipped
  // sub-blocks, materialization time); may be null.
  FilterScanStats* filter_stats = nullptr;
  // Tiered mode only: bound on the accumulated cold-list fault time (0 = no
  // limit; probes past the budget are dropped — a reduced effective nprobe)
  // and the hit/fault accounting (may be null).
  Micros io_budget_micros = 0;
  TierScanStats* tier_stats = nullptr;
};

class IvfIndex {
 public:
  // Flat codec.
  explicit IvfIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
                    const IvfIndexConfig& config = {});
  // PQ codec: `pq` must be trained on the quantizer's dimension.
  IvfIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
           std::shared_ptr<const ProductQuantizer> pq,
           const IvfIndexConfig& config = {});

  IvfIndex(const IvfIndex&) = delete;
  IvfIndex& operator=(const IvfIndex&) = delete;

  // ---- Writer operations (single writer) ----

  // Inserts a brand-new image (Figure 8): forward-index entry + attributes,
  // URL into the buffer, feature stored (or encoded), image id appended to
  // the inverted list chosen by the quantizer, validity bit set. Returns the
  // local id.
  LocalId AddImage(std::string_view image_url, ProductId product_id,
                   CategoryId category, const ProductAttributes& attributes,
                   std::string_view detail_url, FeatureView feature);

  // True if this image URL already has a forward-index entry (the re-listing
  // reuse path: no re-extraction, no new entry — just revalidation).
  bool HasImage(std::string_view image_url) const;
  bool HasProduct(ProductId product_id) const;

  // Updates numeric attributes (and optionally the detail URL) on every
  // image of the product in this partition (Figure 7). Returns the number of
  // entries touched.
  std::size_t UpdateProductAttributes(ProductId product_id,
                                      const ProductAttributes& attributes,
                                      std::string_view detail_url = {});

  // Marks all of the product's images (in this partition) valid/invalid —
  // O(1) per image, never touches the inverted lists (Deletion, Figure 6).
  // Returns the number of bits flipped.
  std::size_t SetProductValidity(ProductId product_id, bool valid);

  // Marks one image valid/invalid; false if unknown.
  bool SetImageValidity(std::string_view image_url, bool valid);

  bool IsImageValid(std::string_view image_url) const;

  // ---- Reader operations (any thread, lock-free) ----

  // Top-k most similar valid images to `query` among the nearest
  // `options.nprobe` lists. A non-empty filter is hybrid search with true
  // predicate pushdown: a selectivity-adaptive plan (see the IvfIndexConfig
  // knobs) either tests the predicates on kernel survivors directly, or
  // materializes them once into a bitmap (category tags AND validity AND
  // numeric ranges) that post-filters survivors or lets the scan skip
  // wholly-dead 64-entry sub-blocks, widening nprobe when almost nothing
  // matches. A category scope — the production use of the detector output
  // (Section 2.4) — is one such predicate. The PQ rerank operates on
  // already-filtered candidates, so predicates survive the IVFADC+R finish.
  // In tiered mode the probed lists are pinned in the residency cache before
  // the scan.
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                const IvfSearchOptions& options = {}) const;
  // Positional form kept for the repository benchmark: scopes the query to
  // `category` unless it is kNoCategoryFilter.
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe, CategoryId category) const;

  // Scan stage alone: top-k (local id, distance) pairs over an
  // already-chosen probe set, without forward-index materialization (PQ:
  // after the rerank). The building block Search() composes (probe ->
  // ScanProbes -> materialize); exposed for callers that schedule coarse
  // probing themselves and for stage-level benchmarking.
  std::vector<ScoredImage> ScanProbes(
      FeatureView query, std::size_t k,
      std::span<const std::uint32_t> probes,
      const MaterializedFilter* filter = nullptr, bool post_filter = false,
      FilterScanStats* stats = nullptr,
      const FilterExpression* direct_filter = nullptr) const;

  // Brute-force scan over all valid images (ground truth for recall tests).
  // Flat codec only: throws std::logic_error on a PQ-coded index, whose
  // rows hold no exact features to be ground truth over.
  std::vector<SearchHit> SearchExhaustive(FeatureView query,
                                          std::size_t k) const;

  // Brute-force filtered ground truth: every valid image matching the
  // predicates, exact distances (subtract form), top-k. The oracle the
  // hybrid property tests compare pushdown against. Flat codec only.
  std::vector<SearchHit> SearchExhaustive(FeatureView query, std::size_t k,
                                          const FilterExpression& filter) const;

  // Visits every entry in local-id order with its attributes, the raw
  // feature of the PQ rerank store (empty without one) and validity — the
  // iteration snapshotting and replication tooling builds on. Safe
  // concurrently with searches; must not race the writer (mid-append, the
  // rerank store trails the forward index).
  void ForEachEntry(
      const std::function<void(LocalId, const AttributeSnapshot&,
                               FeatureView raw, bool valid)>& visit) const;

  IvfIndexStats Stats() const;
  std::size_t size() const { return forward_.size(); }
  std::size_t dim() const { return quantizer_->dim(); }
  // Flat codec's per-row scan stride in floats (dim rounded up to whole
  // cache lines).
  std::size_t padded_dim() const noexcept { return padded_dim_; }
  // Bytes per list row in scan storage: padded_dim() floats (flat) or the
  // code_bytes() PQ code.
  std::size_t row_bytes() const noexcept {
    return pq_ == nullptr ? padded_dim_ * sizeof(float) : pq_->code_bytes();
  }
  const CoarseQuantizer& quantizer() const { return *quantizer_; }
  // The PQ codec's quantizer; null for a flat-coded index.
  const ProductQuantizer* pq() const noexcept { return pq_.get(); }
  // True when the index keeps every raw feature (the PQ rerank store).
  bool keeps_raw() const noexcept { return raw_ != nullptr; }
  const IvfIndexConfig& config() const { return config_; }
  // The attribute filter index this partition maintains alongside the
  // forward index (read-only: snapshot verification and tests).
  const AttributeFilterIndex& attribute_filters() const { return filters_; }

  // True when every published list row sits on a 64-byte boundary — the
  // layout invariant snapshot load re-checks before SIMD scans run on the
  // restored storage.
  bool scan_storage_aligned() const noexcept;

  // ---- Restore hooks: writer-only, load-time ----

  // Appends an entry's metadata only — forward index, attribute filters,
  // validity, lookup maps, and `raw` into the PQ rerank store when the
  // index keeps one (empty otherwise) — without touching the inverted
  // lists; the row arrives later through RestoreList or AttachFrozenList.
  // The snapshot loaders' twin of AddImage.
  LocalId AddImageMetadata(std::string_view image_url, ProductId product_id,
                           CategoryId category,
                           const ProductAttributes& attributes,
                           std::string_view detail_url, FeatureView raw);

  // Appends `count` stored entries to list `list` in order: their ids,
  // norms and rows (row_bytes() each at `payload`, copied into heap scan
  // storage), so the list is rebuilt exactly as it was written. Must follow
  // the AddImageMetadata calls that defined the ids. The heap loader's
  // counterpart of AttachFrozenList.
  void RestoreList(std::size_t list, const LocalId* ids, const float* norms,
                   const std::uint8_t* payload, std::size_t count);

  // Installs list `list`'s frozen scan storage: `count` entries whose ids
  // and norms the index copies into heap arrays (the RAM-resident "head")
  // and whose payload rows stay at `payload` — 64-byte aligned, one
  // row per entry, typically inside an mmap'd snapshot, valid for the
  // index's lifetime. Must follow the AddImageMetadata calls that defined
  // the ids; each list may be attached once, before any AddImage.
  void AttachFrozenList(std::size_t list, const LocalId* ids,
                        const float* norms, const std::uint8_t* payload,
                        std::size_t count);

  // Attaches the residency cache; searches pin their probe sets through it
  // from then on. The store must own the mapping AttachFrozenList's payload
  // pointers refer into.
  void AttachTieredStore(std::shared_ptr<TieredListStore> store) {
    tiered_store_ = std::move(store);
  }
  const TieredListStore* tiered_store() const noexcept {
    return tiered_store_.get();
  }
  // Shared (mutable) handle for the background scrubber: ScrubList poisons
  // corrupt lists, which is a store-internal state change, not an index one.
  std::shared_ptr<TieredListStore> tiered_store_shared() const noexcept {
    return tiered_store_;
  }

  // Per-list scan storage introspection (snapshot writer).
  std::size_t num_lists() const noexcept { return blocks_.size(); }
  std::size_t ListEntryCount(std::size_t list) const {
    return blocks_[list]->size();
  }
  // Visits list `list`'s published entries as contiguous runs:
  // fn(ids, payload, norms, count). Safe concurrently with searches.
  void ForEachScanRun(
      std::size_t list,
      const std::function<void(const LocalId*, const std::uint8_t*,
                               const float*, std::size_t)>& fn) const;

 private:
  // One query's hybrid scan decision: the materialized bitmap — or, for
  // broad filters, a direct predicate pointer and no bitmap at all — plus
  // the strategy the selectivity picked.
  struct FilterPlan {
    std::unique_ptr<const MaterializedFilter> bits;  // null unless built
    // Direct post mode: predicates evaluated only on kernel survivors,
    // nothing materialized (broad filters).
    const FilterExpression* direct = nullptr;
    bool post_mode = false;     // survivors tested vs sub-block masks
    bool empty_result = false;  // zero matches: skip the scan entirely
    std::size_t nprobe = 0;     // effective probe count (possibly widened)
  };
  // What survivor admission needs to know about one query. A non-null
  // `bits` folds validity and every predicate already: `post` tests kernel
  // survivors against it, otherwise sub-block masks are gathered first and
  // wholly-dead sub-blocks skip the kernel. A non-null `direct` (exclusive
  // with `bits`) post-filters survivors straight against the predicates.
  struct Admission {
    const MaterializedFilter* bits = nullptr;
    bool post = false;
    const FilterExpression* direct = nullptr;
  };

  // Plans one query: `filter` null or empty means unfiltered.
  FilterPlan PlanFilteredScan(const FilterExpression* filter,
                              std::size_t nprobe_override,
                              FilterScanStats* stats) const;
  // Sampled selectivity estimate (bounded forward-index probes, no bitmap):
  // the gate that sends broad filters into direct post mode.
  double EstimateFilterSelectivity(const FilterExpression& filter) const;

  // Shared metadata append of AddImage / AddImageMetadata: forward index,
  // attribute filters and the writer's lookup maps.
  LocalId AppendMetadata(std::string_view image_url, ProductId product_id,
                         CategoryId category,
                         const ProductAttributes& attributes,
                         std::string_view detail_url);

  // ---- The codec-specific steps ----

  // Floats of per-query scan input: padded_dim() (flat) or the ADC table's
  // num_subspaces x codebook_size (PQ).
  std::size_t QueryScanFloats() const noexcept;
  // Per-query setup into `out` (QueryScanFloats() floats): the query padded
  // with zeros and its squared L2 norm as the return value (flat — the
  // fused kernel computes distances in the dot-product form against per-row
  // norms), or the ADC table (PQ, returns 0).
  float PrepareQuery(FeatureView query, float* out) const;
  // QueryScanFloats() of scratch: `stack_buf` (kMaxStackQueryFloats
  // capacity) when it fits, else a fresh aligned heap block kept alive by
  // `heap_buf`.
  float* QueryScratch(float* stack_buf, AlignedArray<float>& heap_buf) const;
  // Scans one list against a prepared query, offering admitted survivors.
  void ScanList(std::size_t list, const float* query_scan, float query_norm,
                const Admission& admission, FilterScanStats* stats,
                TopK& topk) const;
  // Survivor heap depth for a top-k query: k, or the PQ rerank shortlist.
  std::size_t ScanDepth(std::size_t k) const noexcept;
  // Ranks a query's scan survivors: the PQ rerank against exact distances,
  // or the sorted top-k as is.
  std::vector<ScoredImage> Finish(FeatureView query, std::size_t k,
                                  TopK& topk) const;

  // The sub-block loop both codecs' scans share: mask gathering, the
  // codec's kernel (`kernel(begin, count, threshold, keep, keep_dist)`
  // returns the survivors at or under the threshold), survivor admission.
  template <typename SubBlockKernel>
  void ScanRun(const LocalId* ids, std::size_t count,
               const Admission& admission, FilterScanStats* stats,
               TopK& topk, SubBlockKernel&& kernel) const;
  bool Admits(const Admission& admission, LocalId local,
              bool in_alive_mask) const;

  SearchHit MaterializeHit(const ScoredImage& scored) const;
  // Materializes ranked scan results, applying the late validity filter when
  // the ablation flag disabled filtering during the scan.
  std::vector<SearchHit> MaterializeRanked(
      std::span<const ScoredImage> ranked) const;
  // Both SearchExhaustive forms; `filter` may be null.
  std::vector<SearchHit> ExhaustiveScan(FeatureView query, std::size_t k,
                                        const FilterExpression* filter) const;

  static constexpr std::size_t kMaxStackQueryFloats = 1024;

  std::shared_ptr<const CoarseQuantizer> quantizer_;
  std::shared_ptr<const ProductQuantizer> pq_;  // null = flat codec
  IvfIndexConfig config_;
  const std::size_t padded_dim_;
  ForwardIndex forward_;
  ValidityBitmap valid_;
  // Attribute filter index (per-tag bitmaps + numeric columns), appended in
  // lockstep with forward_ so LocalIds align.
  AttributeFilterIndex filters_;
  // The inverted lists: per-list contiguous rows in list order.
  std::vector<std::unique_ptr<ScanBlock>> blocks_;
  // PQ rerank store (raw features by local id); null unless the PQ codec
  // re-ranks.
  std::unique_ptr<VectorSet> raw_;
  // Writer-owned scratch row for padding incoming features (flat codec).
  AlignedArray<float> pad_scratch_;
  // Writer-owned lookup state (never touched by Search).
  std::unordered_map<std::string, LocalId> url_to_local_;
  std::unordered_map<ProductId, std::vector<LocalId>> product_to_locals_;
  // Residency cache for disk-backed frozen lists (null = fully RAM-resident;
  // attached once at load, before the index takes traffic).
  std::shared_ptr<TieredListStore> tiered_store_;
};

// The naive hybrid baseline: over-fetch through the unfiltered Search and
// post-filter the hits, re-fetching with a growing multiple of k until k
// survivors accumulate or the index is exhausted. Selective filters pay
// recall; IvfIndex's filtered Search exists precisely to do better. Kept
// as the comparison point for the pushdown (bench_filter_selectivity).
std::vector<SearchHit> PostFilteredSearch(const IvfIndex& index,
                                          FeatureView query, std::size_t k,
                                          std::size_t nprobe_override,
                                          const FilterExpression& filter,
                                          FilterScanStats* stats = nullptr);

}  // namespace jdvs
