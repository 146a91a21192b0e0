#include "pq/codebook.h"

#include <cassert>
#include <cstring>
#include <limits>
#include <memory>

#include "vecmath/distance.h"

namespace jdvs {

ProductQuantizer::ProductQuantizer(std::size_t dim, std::size_t num_subspaces,
                                   std::size_t codebook_size,
                                   std::vector<float> codebooks)
    : dim_(dim),
      num_subspaces_(num_subspaces),
      subspace_dim_(dim / num_subspaces),
      codebook_size_(codebook_size),
      codebooks_(std::move(codebooks)) {
  assert(num_subspaces_ > 0 && dim_ % num_subspaces_ == 0);
  assert(codebook_size_ >= 1 && codebook_size_ <= 256);
  assert(codebooks_.size() == num_subspaces_ * codebook_size_ * subspace_dim_);
}

ProductQuantizer ProductQuantizer::Train(const float* training,
                                         std::size_t count, std::size_t dim,
                                         const ProductQuantizerConfig& config) {
  assert(count >= 1);
  assert(config.num_subspaces > 0 && dim % config.num_subspaces == 0);
  assert(config.codebook_size >= 1 && config.codebook_size <= 256);
  const std::size_t m = config.num_subspaces;
  const std::size_t sub_dim = dim / m;

  std::vector<float> codebooks(m * config.codebook_size * sub_dim, 0.f);
  std::vector<float> sub_points(count * sub_dim);
  for (std::size_t s = 0; s < m; ++s) {
    // Slice out subspace s of every training vector.
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(&sub_points[i * sub_dim], training + i * dim + s * sub_dim,
                  sub_dim * sizeof(float));
    }
    KMeansConfig kc = config.kmeans;
    kc.num_clusters = config.codebook_size;
    kc.seed = config.kmeans.seed + s;  // independent seeding per subspace
    const KMeansResult result = TrainKMeans(sub_points.data(), count, sub_dim, kc);
    // If training had fewer points than codebook_size, the trained centroid
    // count shrinks; remaining slots stay zero (never matched by Encode
    // because Encode only scans the trained prefix). Record the effective
    // size by duplicating the last centroid into the tail so lookups stay
    // valid.
    for (std::size_t k = 0; k < config.codebook_size; ++k) {
      const std::size_t src = std::min(k, result.num_clusters - 1);
      std::memcpy(
          &codebooks[(s * config.codebook_size + k) * sub_dim],
          result.centroids.data() + src * sub_dim, sub_dim * sizeof(float));
    }
  }
  return ProductQuantizer(dim, m, config.codebook_size, std::move(codebooks));
}

ProductQuantizer ProductQuantizer::Train(
    const std::vector<FeatureVector>& training,
    const ProductQuantizerConfig& config) {
  assert(!training.empty());
  const std::size_t dim = training.front().size();
  std::vector<float> flat;
  flat.reserve(training.size() * dim);
  for (const auto& v : training) {
    assert(v.size() == dim);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return Train(flat.data(), training.size(), dim, config);
}

PqCode ProductQuantizer::Encode(FeatureView v) const {
  assert(v.size() == dim_);
  PqCode code(num_subspaces_);
  for (std::size_t s = 0; s < num_subspaces_; ++s) {
    const FeatureView sub(v.data() + s * subspace_dim_, subspace_dim_);
    float best = std::numeric_limits<float>::infinity();
    std::uint8_t best_k = 0;
    for (std::size_t k = 0; k < codebook_size_; ++k) {
      const float d = L2SquaredDistance(sub, Centroid(s, k));
      if (d < best) {
        best = d;
        best_k = static_cast<std::uint8_t>(k);
      }
    }
    code[s] = best_k;
  }
  return code;
}

FeatureVector ProductQuantizer::Decode(const PqCode& code) const {
  assert(code.size() == num_subspaces_);
  FeatureVector v(dim_);
  for (std::size_t s = 0; s < num_subspaces_; ++s) {
    const FeatureView centroid = Centroid(s, code[s]);
    std::memcpy(v.data() + s * subspace_dim_, centroid.data(),
                subspace_dim_ * sizeof(float));
  }
  return v;
}

std::vector<float> ProductQuantizer::BuildDistanceTable(
    FeatureView query) const {
  std::vector<float> table(num_subspaces_ * codebook_size_);
  BuildDistanceTable(query, table.data());
  return table;
}

void ProductQuantizer::BuildDistanceTable(FeatureView query,
                                          float* table) const {
  assert(query.size() == dim_);
  for (std::size_t s = 0; s < num_subspaces_; ++s) {
    const FeatureView sub(query.data() + s * subspace_dim_, subspace_dim_);
    for (std::size_t k = 0; k < codebook_size_; ++k) {
      table[s * codebook_size_ + k] = L2SquaredDistance(sub, Centroid(s, k));
    }
  }
}

float ProductQuantizer::DistanceWithTable(
    const std::vector<float>& table, const std::uint8_t* code) const noexcept {
  float total = 0.f;
  for (std::size_t s = 0; s < num_subspaces_; ++s) {
    total += table[s * codebook_size_ + code[s]];
  }
  return total;
}

float ProductQuantizer::AsymmetricDistance(FeatureView query,
                                           const PqCode& code) const {
  return L2SquaredDistance(query, Decode(code));
}

}  // namespace jdvs
