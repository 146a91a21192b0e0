#include "cluster/quantizer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "vecmath/kernels.h"

namespace jdvs {

CoarseQuantizer::CoarseQuantizer(std::vector<float> centroids, std::size_t dim)
    : centroids_(std::move(centroids)),
      dim_(dim),
      num_clusters_(dim == 0 ? 0 : centroids_.size() / dim),
      padded_dim_(PaddedDim(dim)) {
  assert(dim_ > 0);
  assert(centroids_.size() % dim_ == 0);
  assert(num_clusters_ > 0);
  // Padded, 64-byte-aligned mirror of the centroid table so assignment runs
  // through the batch scan kernel (padding lanes are zero and contribute 0).
  padded_centroids_ = AllocateAligned<float>(num_clusters_ * padded_dim_);
  for (std::size_t c = 0; c < num_clusters_; ++c) {
    std::memcpy(padded_centroids_.get() + c * padded_dim_,
                centroids_.data() + c * dim_, dim_ * sizeof(float));
  }
}

CoarseQuantizer::CoarseQuantizer(const KMeansResult& kmeans)
    : CoarseQuantizer(kmeans.centroids, kmeans.dim) {}

void CoarseQuantizer::ScoreAll(FeatureView v, float* dists) const {
  assert(v.size() == dim_);
  const DistanceKernels& kernels = Kernels();
  // Zero-padded query row; reused scratch keeps the sweep allocation-free
  // after the first call on a thread.
  thread_local std::vector<float> padded_query;
  padded_query.assign(padded_dim_, 0.f);
  std::memcpy(padded_query.data(), v.data(), dim_ * sizeof(float));
  kernels.l2sq_scan(padded_query.data(), padded_centroids_.get(), padded_dim_,
                    padded_dim_, num_clusters_, dists);
}

std::uint32_t CoarseQuantizer::NearestCentroid(FeatureView v) const {
  thread_local std::vector<float> dists;
  dists.resize(num_clusters_);
  ScoreAll(v, dists.data());
  float best = std::numeric_limits<float>::infinity();
  std::uint32_t best_c = 0;
  for (std::size_t c = 0; c < num_clusters_; ++c) {
    if (dists[c] < best) {
      best = dists[c];
      best_c = static_cast<std::uint32_t>(c);
    }
  }
  return best_c;
}

std::vector<std::uint32_t> CoarseQuantizer::NearestCentroids(
    FeatureView v, std::size_t nprobe) const {
  nprobe = std::clamp<std::size_t>(nprobe, 1, num_clusters_);
  thread_local std::vector<float> dists;
  dists.resize(num_clusters_);
  ScoreAll(v, dists.data());
  thread_local std::vector<std::pair<float, std::uint32_t>> scored;
  scored.clear();
  scored.reserve(num_clusters_);
  for (std::size_t c = 0; c < num_clusters_; ++c) {
    scored.emplace_back(dists[c], static_cast<std::uint32_t>(c));
  }
  std::partial_sort(scored.begin(), scored.begin() + nprobe, scored.end());
  std::vector<std::uint32_t> result(nprobe);
  for (std::size_t i = 0; i < nprobe; ++i) result[i] = scored[i].second;
  return result;
}

}  // namespace jdvs
