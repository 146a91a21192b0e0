// Coarse quantizer: maps a feature vector to its nearest centroid(s).
//
// During indexing "the class that an image belongs to is calculated based on
// the similarity using the nearest neighbor algorithm" (Section 2.2); during
// search "each searcher node identifies the cluster that is most similar to
// the queried image" (Section 2.4). Searching more than one probe (nprobe)
// is the standard IVF recall knob and is exposed here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "vecmath/aligned.h"
#include "vecmath/vector.h"

namespace jdvs {

class CoarseQuantizer {
 public:
  // Takes ownership of trained centroids (num_clusters x dim row-major).
  CoarseQuantizer(std::vector<float> centroids, std::size_t dim);

  // Builds from a k-means result.
  explicit CoarseQuantizer(const KMeansResult& kmeans);

  // Index of the nearest centroid. Thread-safe (immutable after build).
  std::uint32_t NearestCentroid(FeatureView v) const;

  // Indices of the `nprobe` nearest centroids, most similar first.
  std::vector<std::uint32_t> NearestCentroids(FeatureView v,
                                              std::size_t nprobe) const;

  FeatureView Centroid(std::size_t c) const {
    return FeatureView(centroids_.data() + c * dim_, dim_);
  }
  std::size_t num_clusters() const { return num_clusters_; }
  std::size_t dim() const { return dim_; }

 private:
  // Squared distances from `v` to every centroid, via the batch scan kernel
  // over the padded table. `dists` must hold num_clusters() floats.
  void ScoreAll(FeatureView v, float* dists) const;

  std::vector<float> centroids_;
  std::size_t dim_;
  std::size_t num_clusters_;
  std::size_t padded_dim_;
  // Centroids re-laid-out at PaddedDim(dim) stride, 64-byte aligned, padding
  // lanes zero — the layout the vecmath batch kernels scan fastest.
  AlignedArray<float> padded_centroids_;
};

}  // namespace jdvs
