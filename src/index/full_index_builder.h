// Periodic full indexing (Section 2.2, Figures 2-3).
//
// "The full indexing is performed periodically to ensure the data
// completeness." The pipeline: replay the day's buffered message log onto
// the product catalog, pull new images from the image store, consult the
// feature DB before extracting (extract-once), and rebuild the forward and
// inverted indexes from scratch over *valid* images only. "Building the
// full index for all images is performed every week."
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/quantizer.h"
#include "common/clock.h"
#include "index/ivf_index.h"
#include "index/realtime_indexer.h"
#include "mq/message_log.h"
#include "store/catalog.h"
#include "store/feature_db.h"
#include "store/image_store.h"

namespace jdvs {

struct FullIndexReport {
  std::uint64_t messages_replayed = 0;
  std::uint64_t products_indexed = 0;
  std::uint64_t products_skipped_invalid = 0;
  std::uint64_t images_indexed = 0;
  std::uint64_t images_skipped_other_partition = 0;
  std::uint64_t features_reused = 0;
  std::uint64_t features_extracted = 0;
  Micros elapsed_micros = 0;
};

struct FullIndexBuilderConfig {
  IvfIndexConfig index_config;
  // Max number of feature vectors sampled for quantizer training.
  std::size_t training_sample = 4096;
  KMeansConfig kmeans;
  std::uint64_t seed = 123;
};

// Applies one update message to the catalog (ProductCatalog::Apply) and
// registers an addition's images in the image store: the one catalog apply
// behind both the publish path and the day-log replay. Returns the
// product's image URLs after the apply, as ProductCatalog::Apply does.
std::vector<std::string> ApplyToCatalog(const ProductUpdateMessage& message,
                                        ProductCatalog& catalog,
                                        ImageStore& image_store);

class FullIndexBuilder {
 public:
  FullIndexBuilder(ProductCatalog& catalog, ImageStore& image_store,
                   FeatureDb& features,
                   const FullIndexBuilderConfig& config = {},
                   const Clock& clock = MonotonicClock::Instance());

  // Step 1 (Figure 2): replays the day's message log onto the catalog and
  // image store, so the catalog reflects every buffered update; then clears
  // the log. Returns the number of messages applied.
  std::uint64_t ApplyMessageLog(MessageLog& log);

  // Step 2 (Figure 3, left): trains the k-means coarse quantizer on a sample
  // of (deduplicated) image features of valid products.
  std::shared_ptr<const CoarseQuantizer> TrainQuantizer();

  // Step 3 (Figure 3, right): builds a fresh per-partition index over all
  // valid images that pass `filter`. Fills `report` when non-null.
  std::unique_ptr<IvfIndex> Build(
      std::shared_ptr<const CoarseQuantizer> quantizer,
      const PartitionFilter& filter = AcceptAllPartitionFilter(),
      FullIndexReport* report = nullptr);

 private:
  ProductCatalog& catalog_;
  ImageStore& image_store_;
  FeatureDb& features_;
  FullIndexBuilderConfig config_;
  const Clock* clock_;
};

}  // namespace jdvs
