#include "vecmath/distance.h"

#include <cassert>
#include <cmath>

#include "vecmath/kernels.h"

namespace jdvs {

// The pairwise entry points are thin wrappers over the runtime-dispatched
// kernel table (vecmath/kernels.h): every call site — ivf_index, kmeans,
// quantizer, query_cache, codebook — picks up the SIMD tier resolved at
// startup without any semantic change.

float L2SquaredDistance(FeatureView a, FeatureView b) noexcept {
  assert(a.size() == b.size());
  return Kernels().l2sq(a.data(), b.data(), a.size());
}

float InnerProduct(FeatureView a, FeatureView b) noexcept {
  assert(a.size() == b.size());
  return Kernels().ip(a.data(), b.data(), a.size());
}

float L2Norm(FeatureView a) noexcept {
  // Deliberately NOT sqrt(InnerProduct(a, a)): the fp32 accumulator loses
  // precision over long vectors and overflows to +inf around |x| ~ 1e19
  // (x*x near FLT_MAX) — real embedding pipelines hand us unnormalized
  // vectors exactly here, before NormalizeL2. Accumulate in float64; norms
  // up to ~1e154 stay finite and the rounding error is one ulp-ish.
  double acc = 0.0;
  for (const float x : a) {
    const double d = static_cast<double>(x);
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

void NormalizeL2(std::span<float> v) noexcept {
  // Same float64 discipline as L2Norm so huge-magnitude vectors normalize
  // instead of collapsing to 0/NaN through an intermediate +inf.
  double acc = 0.0;
  for (const float x : v) {
    const double d = static_cast<double>(x);
    acc += d * d;
  }
  if (acc == 0.0) return;
  const double inv = 1.0 / std::sqrt(acc);
  for (float& x : v) x = static_cast<float>(static_cast<double>(x) * inv);
}

void L2SquaredBatch(FeatureView query, const float* base, std::size_t dim,
                    std::size_t count, float* out) noexcept {
  assert(query.size() == dim);
  const DistanceKernels& kernels = Kernels();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    kernels.l2sq_batch4(query.data(), base + i * dim, dim, dim, out + i);
  }
  for (; i < count; ++i) {
    out[i] = kernels.l2sq(query.data(), base + i * dim, dim);
  }
}

}  // namespace jdvs
