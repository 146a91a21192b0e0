#include "index/full_index_builder.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace jdvs {

std::vector<std::string> ApplyToCatalog(const ProductUpdateMessage& message,
                                        ProductCatalog& catalog,
                                        ImageStore& image_store) {
  std::vector<std::string> urls = catalog.Apply(message);
  if (message.type == UpdateType::kAddProduct) {
    for (const std::string& url : message.image_urls) {
      image_store.Put(url, message.product_id, message.category_id);
    }
  }
  return urls;
}

FullIndexBuilder::FullIndexBuilder(ProductCatalog& catalog,
                                   ImageStore& image_store, FeatureDb& features,
                                   const FullIndexBuilderConfig& config,
                                   const Clock& clock)
    : catalog_(catalog),
      image_store_(image_store),
      features_(features),
      config_(config),
      clock_(&clock) {}

std::uint64_t FullIndexBuilder::ApplyMessageLog(MessageLog& log) {
  std::uint64_t applied = 0;
  log.Replay([&](const ProductUpdateMessage& message) {
    ++applied;
    ApplyToCatalog(message, catalog_, image_store_);
  });
  log.Clear();
  return applied;
}

std::shared_ptr<const CoarseQuantizer> FullIndexBuilder::TrainQuantizer() {
  // Reservoir-sample up to training_sample features over valid products'
  // images; dedup/extraction goes through the feature DB like all paths.
  Rng rng(config_.seed);
  std::vector<FeatureVector> sample;
  sample.reserve(config_.training_sample);
  std::uint64_t seen = 0;
  catalog_.ForEach([&](const ProductRecord& record) {
    if (!record.on_market) return;
    for (const std::string& url : record.image_urls) {
      ++seen;
      const ImageContent content{url, record.id, record.category};
      if (sample.size() < config_.training_sample) {
        sample.push_back(features_.GetOrExtract(content, rng).first);
      } else {
        const std::uint64_t slot = rng.Below(seen);
        if (slot < sample.size()) {
          sample[slot] = features_.GetOrExtract(content, rng).first;
        }
      }
    }
  });
  if (sample.empty()) {
    // Empty catalog: a single zero centroid keeps downstream code simple.
    const std::size_t dim = features_.embedder().dim();
    return std::make_shared<CoarseQuantizer>(std::vector<float>(dim, 0.f),
                                             dim);
  }
  const KMeansResult kmeans = TrainKMeans(sample, config_.kmeans);
  JDVS_LOG(kInfo) << "trained quantizer: " << kmeans.num_clusters
                  << " clusters over " << sample.size() << " samples, inertia "
                  << kmeans.inertia << " after " << kmeans.iterations_run
                  << " iterations";
  return std::make_shared<CoarseQuantizer>(kmeans);
}

std::unique_ptr<IvfIndex> FullIndexBuilder::Build(
    std::shared_ptr<const CoarseQuantizer> quantizer,
    const PartitionFilter& filter, FullIndexReport* report) {
  const Micros start = clock_->NowMicros();
  FullIndexReport local_report;
  auto index = std::make_unique<IvfIndex>(std::move(quantizer),
                                          config_.index_config);
  Rng rng(config_.seed ^ 0xF00DULL);
  catalog_.ForEach([&](const ProductRecord& record) {
    // "Only the valid images are used to create the full index."
    if (!record.on_market) {
      ++local_report.products_skipped_invalid;
      return;
    }
    bool any = false;
    for (const std::string& url : record.image_urls) {
      if (!filter(url)) {
        ++local_report.images_skipped_other_partition;
        continue;
      }
      // Full indexing pulls the image from the image store (Figure 2), then
      // checks the feature DB before extracting.
      const auto content = image_store_.Fetch(url);
      if (!content) continue;
      auto [feature, reused] = features_.GetOrExtract(*content, rng);
      if (reused) {
        ++local_report.features_reused;
      } else {
        ++local_report.features_extracted;
      }
      index->AddImage(url, record.id, record.category, record.attributes,
                      record.detail_url, feature);
      ++local_report.images_indexed;
      any = true;
    }
    if (any) ++local_report.products_indexed;
  });
  local_report.elapsed_micros = clock_->NowMicros() - start;
  if (report != nullptr) *report = local_report;
  return index;
}

}  // namespace jdvs
