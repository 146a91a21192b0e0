#include "index/realtime_indexer.h"

namespace jdvs {

PartitionFilter AcceptAllPartitionFilter() {
  return [](std::string_view) { return true; };
}

RealTimeIndexer::RealTimeIndexer(IvfIndex& index, FeatureDb& features,
                                 PartitionFilter filter, std::uint64_t seed,
                                 const Clock& clock, obs::Registry* registry,
                                 std::string_view owner)
    : index_(index),
      features_(features),
      filter_(std::move(filter)),
      rng_(seed),
      clock_(&clock) {
  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::Default();
  updates_total_ = &reg.GetCounter(
      obs::Labeled("jdvs_realtime_updates_total", "searcher", owner));
  apply_stage_ = &reg.GetHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "rt_apply"));
}

void RealTimeIndexer::Apply(const ProductUpdateMessage& message) {
  const Micros start = clock_->NowMicros();
  switch (message.type) {
    case UpdateType::kAttributeUpdate:
      ApplyAttributeUpdate(message);
      break;
    case UpdateType::kAddProduct:
      ApplyAddition(message);
      break;
    case UpdateType::kRemoveProduct:
      ApplyDeletion(message);
      break;
  }
  const Micros elapsed = clock_->NowMicros() - start;
  latency_.Record(elapsed);
  apply_stage_->Record(elapsed);
  updates_total_->Increment();
}

void RealTimeIndexer::ApplyAttributeUpdate(
    const ProductUpdateMessage& message) {
  ++counters_.attribute_updates;
  counters_.entries_touched += index_.UpdateProductAttributes(
      message.product_id, message.attributes, message.detail_url);
}

void RealTimeIndexer::ApplyAddition(const ProductUpdateMessage& message) {
  ++counters_.additions;
  // "we first check if the product already exists. If it is, we simply
  // update its validity in the bitmap and reuse its images' features."
  // Attribute values may have changed while the product was off the market,
  // so the forward index is refreshed too.
  if (index_.HasProduct(message.product_id)) {
    counters_.entries_touched += index_.UpdateProductAttributes(
        message.product_id, message.attributes, message.detail_url);
  }
  for (const std::string& url : message.image_urls) {
    if (!filter_(url)) continue;  // another partition owns this image
    if (index_.HasImage(url)) {
      index_.SetImageValidity(url, true);
      ++counters_.images_revalidated;
      continue;
    }
    // New image: feature DB consulted first; extraction only on a miss
    // ("always checks if an image's features have been previously
    // extracted", Section 2.1).
    const ImageContent content{url, message.product_id, message.category_id};
    auto [feature, reused] = features_.GetOrExtract(content, rng_);
    if (reused) {
      ++counters_.features_reused;
    } else {
      ++counters_.features_extracted;
    }
    index_.AddImage(url, message.product_id, message.category_id,
                    message.attributes, message.detail_url, feature);
    ++counters_.images_added;
  }
}

void RealTimeIndexer::ApplyDeletion(const ProductUpdateMessage& message) {
  ++counters_.deletions;
  counters_.images_invalidated +=
      index_.SetProductValidity(message.product_id, false);
}

void RealTimeIndexer::ResetStats() {
  counters_ = RealTimeIndexerCounters{};
  latency_.Reset();
}

}  // namespace jdvs
