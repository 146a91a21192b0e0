// Property tests for the runtime-dispatched kernel layer: every SIMD tier
// must agree with scalar within tolerance on every kernel and dimension
// (including remainder lanes), the aligned scan-block storage must uphold
// its layout contract (and its lock-free reader contract under a concurrent
// writer), and the float64-accumulated norms must survive large-magnitude
// inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/scan_block.h"
#include "vecmath/aligned.h"
#include "vecmath/distance.h"
#include "vecmath/kernels.h"

namespace jdvs {
namespace {

// The dimension sweep from the kernel contract: scalar-only sizes, exact
// lane-group sizes (8/16), one-past sizes that exercise remainder handling,
// and the paper's 960-d VGG feature.
const std::size_t kDims[] = {1, 3, 8, 15, 16, 17, 64, 128, 960};

constexpr double kRelTol = 1e-4;

FeatureVector RandomVector(Rng& rng, std::size_t dim) {
  FeatureVector v(dim);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

void ExpectClose(float actual, float expected) {
  EXPECT_NEAR(actual, expected,
              kRelTol * (1.0 + std::abs(static_cast<double>(expected))));
}

class KernelTierTest : public ::testing::TestWithParam<KernelTier> {
 protected:
  // nullptr when this machine cannot run the tier; tests skip.
  const DistanceKernels* tier_ = KernelsForTier(GetParam());
  const DistanceKernels* scalar_ = KernelsForTier(KernelTier::kScalar);
};

TEST_P(KernelTierTest, PairwiseMatchesScalar) {
  if (tier_ == nullptr) GTEST_SKIP() << "tier unsupported on this CPU";
  ASSERT_NE(scalar_, nullptr);
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 13 + 1);
    for (int trial = 0; trial < 10; ++trial) {
      const FeatureVector a = RandomVector(rng, dim);
      const FeatureVector b = RandomVector(rng, dim);
      ExpectClose(tier_->l2sq(a.data(), b.data(), dim),
                  scalar_->l2sq(a.data(), b.data(), dim));
      ExpectClose(tier_->ip(a.data(), b.data(), dim),
                  scalar_->ip(a.data(), b.data(), dim));
    }
  }
}

TEST_P(KernelTierTest, Batch4MatchesScalarPairwise) {
  if (tier_ == nullptr) GTEST_SKIP() << "tier unsupported on this CPU";
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 17 + 5);
    const FeatureVector q = RandomVector(rng, dim);
    // Tight stride (= dim) and padded stride with zeroed tail: both must
    // produce the pairwise distances.
    for (const std::size_t stride : {dim, PaddedDim(dim)}) {
      AlignedArray<float> base = AllocateAligned<float>(4 * stride);
      std::vector<FeatureVector> rows;
      for (int r = 0; r < 4; ++r) {
        rows.push_back(RandomVector(rng, dim));
        std::memcpy(base.get() + r * stride, rows.back().data(),
                    dim * sizeof(float));
      }
      // Scanning `stride` lanes over zero padding must equal scanning `dim`.
      const std::size_t n = stride;
      FeatureVector padded_q(stride, 0.f);
      std::memcpy(padded_q.data(), q.data(), dim * sizeof(float));
      float out[4];
      tier_->l2sq_batch4(padded_q.data(), base.get(), stride, n, out);
      for (int r = 0; r < 4; ++r) {
        ExpectClose(out[r], scalar_->l2sq(q.data(), rows[r].data(), dim));
      }
    }
  }
}

TEST_P(KernelTierTest, ScanMatchesScalarPairwise) {
  if (tier_ == nullptr) GTEST_SKIP() << "tier unsupported on this CPU";
  // Row counts cover the batch4 groups and the 1-3 row remainder tail.
  for (const std::size_t rows : {1u, 3u, 4u, 5u, 8u, 11u}) {
    for (const std::size_t dim : {3u, 16u, 64u, 960u}) {
      Rng rng(rows * 31 + dim);
      const FeatureVector q = RandomVector(rng, dim);
      const std::size_t stride = PaddedDim(dim);
      AlignedArray<float> base = AllocateAligned<float>(rows * stride);
      std::vector<FeatureVector> stored;
      for (std::size_t r = 0; r < rows; ++r) {
        stored.push_back(RandomVector(rng, dim));
        std::memcpy(base.get() + r * stride, stored.back().data(),
                    dim * sizeof(float));
      }
      std::vector<float> out(rows, -1.f);
      tier_->l2sq_scan(q.data(), base.get(), stride, dim, rows, out.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ExpectClose(out[r], scalar_->l2sq(q.data(), stored[r].data(), dim));
      }
    }
  }
}

namespace {
float SquaredNormF64(const float* v, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<double>(v[i]) * static_cast<double>(v[i]);
  }
  return static_cast<float>(s);
}
}  // namespace

TEST_P(KernelTierTest, ScanFilterMatchesSubtractFormWithinCancellationTol) {
  if (tier_ == nullptr) GTEST_SKIP() << "tier unsupported on this CPU";
  // threshold = +inf: every row survives, in ascending order, and each
  // distance must match the subtract-form scalar kernel within the dot
  // form's documented cancellation bound ~1e-5 * (||q||^2 + ||v||^2).
  for (const std::size_t rows : {1u, 3u, 4u, 5u, 8u, 11u}) {
    for (const std::size_t dim : {3u, 16u, 64u, 960u}) {
      Rng rng(rows * 37 + dim);
      const FeatureVector q = RandomVector(rng, dim);
      const std::size_t stride = PaddedDim(dim);
      AlignedArray<float> base = AllocateAligned<float>(rows * stride);
      std::vector<FeatureVector> stored;
      std::vector<float> norms(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        stored.push_back(RandomVector(rng, dim));
        std::memcpy(base.get() + r * stride, stored.back().data(),
                    dim * sizeof(float));
        norms[r] = SquaredNormF64(stored.back().data(), dim);
      }
      FeatureVector padded_q(stride, 0.f);
      std::memcpy(padded_q.data(), q.data(), dim * sizeof(float));
      const float q_norm = SquaredNormF64(q.data(), dim);
      std::vector<std::uint32_t> idx(rows, 0xdeadbeef);
      std::vector<float> dist(rows, -1.f);
      const std::size_t kept = tier_->l2sq_scan_filter(
          padded_q.data(), q_norm, base.get(), norms.data(), stride, stride,
          rows, std::numeric_limits<float>::infinity(), idx.data(),
          dist.data());
      ASSERT_EQ(kept, rows);
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(idx[r], static_cast<std::uint32_t>(r));
        const float expected =
            scalar_->l2sq(q.data(), stored[r].data(), dim);
        EXPECT_NEAR(dist[r], expected,
                    1e-4 * (1.0 + q_norm + norms[r]))
            << "rows=" << rows << " dim=" << dim << " r=" << r;
      }
    }
  }
}

TEST_P(KernelTierTest, ScanFilterAgreesWithScalarSurvivors) {
  if (tier_ == nullptr) GTEST_SKIP() << "tier unsupported on this CPU";
  // Real thresholds: tiers must keep exactly the scalar fused kernel's
  // survivor set whenever no distance sits within lane-reduction rounding
  // of the threshold (the threshold is picked mid-gap to guarantee that).
  for (const std::size_t rows : {8u, 32u, 100u}) {
    const std::size_t dim = 64;
    Rng rng(rows * 41 + 7);
    const FeatureVector q = RandomVector(rng, dim);
    const std::size_t stride = PaddedDim(dim);
    AlignedArray<float> base = AllocateAligned<float>(rows * stride);
    std::vector<float> norms(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const FeatureVector v = RandomVector(rng, dim);
      std::memcpy(base.get() + r * stride, v.data(), dim * sizeof(float));
      norms[r] = SquaredNormF64(v.data(), dim);
    }
    const float q_norm = SquaredNormF64(q.data(), dim);
    std::vector<std::uint32_t> sidx(rows);
    std::vector<float> sdist(rows);
    const std::size_t all = scalar_->l2sq_scan_filter(
        q.data(), q_norm, base.get(), norms.data(), stride, stride, rows,
        std::numeric_limits<float>::infinity(), sidx.data(), sdist.data());
    ASSERT_EQ(all, rows);
    std::vector<float> sorted = sdist;
    std::sort(sorted.begin(), sorted.end());
    // Mid-gap thresholds at a few depths; skip degenerate (too-tight) gaps.
    for (const std::size_t depth : {rows / 4, rows / 2, rows - 1}) {
      const float lo = sorted[depth];
      const float hi = depth + 1 < rows ? sorted[depth + 1]
                                        : sorted[depth] + 1.f;
      if (hi - lo < 1e-2f) continue;
      const float threshold = (lo + hi) * 0.5f;
      std::vector<std::uint32_t> expect_idx;
      std::vector<float> expect_dist;
      for (std::size_t r = 0; r < rows; ++r) {
        if (sdist[r] <= threshold) {
          expect_idx.push_back(static_cast<std::uint32_t>(r));
          expect_dist.push_back(sdist[r]);
        }
      }
      std::vector<std::uint32_t> idx(rows, 0xdeadbeef);
      std::vector<float> dist(rows, -1.f);
      const std::size_t kept = tier_->l2sq_scan_filter(
          q.data(), q_norm, base.get(), norms.data(), stride, stride, rows,
          threshold, idx.data(), dist.data());
      ASSERT_EQ(kept, expect_idx.size())
          << "rows=" << rows << " depth=" << depth;
      for (std::size_t s = 0; s < kept; ++s) {
        EXPECT_EQ(idx[s], expect_idx[s]);
        ExpectClose(dist[s], expect_dist[s]);
      }
    }
  }
}

TEST_P(KernelTierTest, ScanFilterClampsIdenticalVectorToZero) {
  if (tier_ == nullptr) GTEST_SKIP() << "tier unsupported on this CPU";
  // q scanned against itself: cancellation could produce a tiny negative in
  // the dot form; the kernel must clamp to a non-negative distance within
  // the cancellation bound of zero.
  const std::size_t dim = 64;
  Rng rng(4242);
  const FeatureVector q = RandomVector(rng, dim);
  const std::size_t stride = PaddedDim(dim);
  AlignedArray<float> base = AllocateAligned<float>(4 * stride);
  std::vector<float> norms(4);
  for (std::size_t r = 0; r < 4; ++r) {
    std::memcpy(base.get() + r * stride, q.data(), dim * sizeof(float));
    norms[r] = SquaredNormF64(q.data(), dim);
  }
  const float q_norm = SquaredNormF64(q.data(), dim);
  std::uint32_t idx[4];
  float dist[4];
  const std::size_t kept =
      tier_->l2sq_scan_filter(q.data(), q_norm, base.get(), norms.data(),
                              stride, stride, 4, 1e-3f, idx, dist);
  ASSERT_EQ(kept, 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_GE(dist[r], 0.f);
    EXPECT_LE(dist[r], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, KernelTierTest,
                         ::testing::Values(KernelTier::kScalar,
                                           KernelTier::kAvx2,
                                           KernelTier::kAvx512),
                         [](const auto& info) {
                           return KernelTierName(info.param);
                         });

TEST(KernelDispatchTest, ActiveTierIsSupportedAndForcible) {
  const KernelTier active = ActiveKernelTier();
  EXPECT_NE(KernelsForTier(active), nullptr);
  EXPECT_EQ(Kernels().tier, active);
  // Scalar is always forcible; restore the resolved tier afterwards.
  EXPECT_TRUE(ForceKernelTier(KernelTier::kScalar));
  EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  EXPECT_TRUE(ForceKernelTier(active));
  EXPECT_EQ(ActiveKernelTier(), active);
}

TEST(KernelDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx512), "avx512");
}

// ---- float64 accumulation (the L2Norm overflow fix) ----

TEST(NormPrecisionTest, LargeMagnitudeNormDoesNotOverflow) {
  // x*x for |x| ~ 1e19+ exceeds FLT_MAX (~3.4e38): an fp32 accumulator
  // returns +inf. The float64 path returns the exact 3-4-5 answer.
  const FeatureVector v{3e19f, 4e19f};
  const float norm = L2Norm(v);
  EXPECT_TRUE(std::isfinite(norm));
  EXPECT_NEAR(norm / 5e19f, 1.f, 1e-5);
}

TEST(NormPrecisionTest, LargeMagnitudeNormalizeYieldsUnitVector) {
  FeatureVector v(64, 2e19f);
  NormalizeL2(v);
  EXPECT_NEAR(L2Norm(v), 1.f, 1e-5);
  for (const float x : v) EXPECT_TRUE(std::isfinite(x));
}

// ---- aligned allocation + padded layout helpers ----

TEST(AlignedTest, PaddedDimRoundsToCacheLines) {
  EXPECT_EQ(PaddedDim(1), kFloatsPerCacheLine);
  EXPECT_EQ(PaddedDim(16), 16u);
  EXPECT_EQ(PaddedDim(17), 32u);
  EXPECT_EQ(PaddedDim(960), 960u);  // the paper's dim is already whole lines
}

TEST(AlignedTest, AllocationsAreAlignedAndZeroed) {
  for (const std::size_t count : {1u, 7u, 16u, 1000u}) {
    AlignedArray<float> block = AllocateAligned<float>(count);
    EXPECT_TRUE(IsCacheAligned(block.get()));
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(block.get()[i], 0.f);
  }
}

// ---- ScanBlock: the contiguous posting-list payload store ----

TEST(ScanBlockTest, RoundTripsEntriesAcrossChunks) {
  // 40 entries span the 16-entry first chunk and part of the 32-entry
  // second, so the read-back crosses a chunk boundary.
  constexpr std::size_t kStride = 12;
  constexpr std::size_t kEntries = 40;
  ScanBlock block(kStride, /*max_run_entries=*/8);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    std::vector<std::uint8_t> payload(kStride,
                                      static_cast<std::uint8_t>(i + 1));
    block.Append(/*id=*/i * 10, payload.data(), /*aux=*/i * 0.5f);
    payloads.push_back(std::move(payload));
  }
  ASSERT_EQ(block.size(), kEntries);
  std::size_t i = 0;
  std::size_t chunk_crossings = 0;
  const LocalId* previous_run_end = nullptr;
  block.ForEachRun([&](const LocalId* ids, const std::uint8_t* payload,
                       const float* aux, std::size_t count) {
    // A run that does not continue the previous one's id array starts a new
    // chunk.
    if (previous_run_end != nullptr && ids != previous_run_end) {
      ++chunk_crossings;
    }
    previous_run_end = ids + count;
    for (std::size_t j = 0; j < count; ++j, ++i) {
      ASSERT_LT(i, kEntries);
      EXPECT_EQ(ids[j], i * 10);
      EXPECT_EQ(std::memcmp(payload + j * kStride, payloads[i].data(), kStride),
                0);
      EXPECT_EQ(aux[j], static_cast<float>(i) * 0.5f);
    }
  });
  EXPECT_EQ(i, kEntries);
  EXPECT_EQ(chunk_crossings, 1u);
  EXPECT_TRUE(block.storage_aligned());
  // Geometric growth: 16 + 32 entries allocated for 40 stored.
  EXPECT_EQ(block.memory_bytes(),
            48 * (kStride + sizeof(LocalId) + sizeof(float)));
}

TEST(ScanBlockTest, ExpansionCountMatchesDoublings) {
  // Chunks hold 16, 32, 64, 128, ... entries, so the block grows exactly
  // on the 17th, 49th, 113th and 241st append and on no other.
  const std::vector<std::uint8_t> payload(4, 0);
  ScanBlock block(payload.size());
  std::uint64_t growths = 0;
  std::size_t capacity = 16;
  for (LocalId id = 0; id < 241; ++id) {
    block.Append(id, payload.data());
    if (block.size() > capacity) {
      ++growths;
      capacity += std::size_t{16} << growths;
    }
    EXPECT_EQ(block.chunk_growths(), growths)
        << "after " << block.size() << " appends";
  }
  EXPECT_EQ(block.chunk_growths(), 4u);
  EXPECT_EQ(block.memory_bytes(),
            496 * (payload.size() + sizeof(LocalId) + sizeof(float)));
}

TEST(ScanBlockTest, ForEachRunVisitsAllEntriesInOrderWithAlignedRuns) {
  // Run bases are 64-byte aligned when max_run_entries * stride is a
  // cache-line multiple: 8 * 8 = 64 here.
  ScanBlock block(/*payload_stride_bytes=*/8, /*max_run_entries=*/8);
  constexpr std::uint32_t kEntries = 20;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    std::uint64_t payload = i;
    block.Append(i, &payload, /*aux=*/i * 2.0f);
  }
  std::vector<std::size_t> run_sizes;
  std::vector<LocalId> seen;
  block.ForEachRun([&](const LocalId* ids, const std::uint8_t* payload,
                       const float* aux, std::size_t count) {
    EXPECT_TRUE(IsCacheAligned(payload));
    run_sizes.push_back(count);
    for (std::size_t j = 0; j < count; ++j) {
      seen.push_back(ids[j]);
      std::uint64_t value;
      std::memcpy(&value, payload + j * 8, 8);
      EXPECT_EQ(value, ids[j]);
      EXPECT_EQ(aux[j], static_cast<float>(ids[j]) * 2.0f);
    }
  });
  // 16-entry chunk split into two 8-entry runs, then 4 entries of the
  // 32-entry second chunk.
  EXPECT_EQ(run_sizes, (std::vector<std::size_t>{8, 8, 4}));
  ASSERT_EQ(seen.size(), kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) EXPECT_EQ(seen[i], i);
}

// Figure 9's property on the served list type: a single writer grows the
// block through many chunk doublings while readers scan it without a lock,
// and every scan sees a prefix of the appended sequence with every entry
// complete. Under TSan this also checks the publication order: an Append
// that published size_ before writing the entry would race with the
// readers' loads of that entry.
TEST(ScanBlockTest, ReadersNeverSeePartialOrReorderedPrefix) {
  // 2^18 entries need 15 chunks (16 + 32 + ... + 2^18 entries), i.e. 14
  // growths.
  constexpr std::size_t kEntries = std::size_t{1} << 18;
  constexpr int kReaders = 4;
  const auto payload_for = [](LocalId id) {
    return std::uint64_t{id} * 0x9E3779B97F4A7C15ull + 1;
  };
  ScanBlock block(sizeof(std::uint64_t));
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_runs{0};
  std::atomic<std::uint64_t> bad_entries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        LocalId expected = 0;
        block.ForEachRun([&](const LocalId* ids, const std::uint8_t* payload,
                             const float* aux, std::size_t count) {
          bool in_order = true;
          for (std::size_t j = 0; j < count; ++j) {
            const LocalId id = ids[j];
            if (id != expected + j) in_order = false;
            std::uint64_t value = 0;
            std::memcpy(&value, payload + j * sizeof(value), sizeof(value));
            if (value != payload_for(id) ||
                aux[j] != static_cast<float>(id)) {
              bad_entries.fetch_add(1);
            }
          }
          if (!in_order) bad_runs.fetch_add(1);
          expected += static_cast<LocalId>(count);
        });
      }
    });
  }
  // Start appending only once every reader is scanning, so the growth
  // overlaps the scans.
  while (started.load() < kReaders) std::this_thread::yield();
  for (LocalId id = 0; id < kEntries; ++id) {
    const std::uint64_t payload = payload_for(id);
    block.Append(id, &payload, static_cast<float>(id));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(bad_runs.load(), 0u);
  EXPECT_EQ(bad_entries.load(), 0u);
  EXPECT_EQ(block.size(), kEntries);
  EXPECT_EQ(block.chunk_growths(), 14u);
}

}  // namespace
}  // namespace jdvs
