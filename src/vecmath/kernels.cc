#include "vecmath/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define JDVS_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace jdvs {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier. The reference semantics every SIMD tier must reproduce; also
// the portable fallback (and the JDVS_KERNEL_DISPATCH=scalar ablation path).
// Four accumulators hide FP-add latency and let the autovectorizer help.
// ---------------------------------------------------------------------------

float L2SqScalar(const float* a, const float* b, std::size_t n) noexcept {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

float IpScalar(const float* a, const float* b, std::size_t n) noexcept {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

void L2SqBatch4Scalar(const float* q, const float* base, std::size_t stride,
                      std::size_t n, float* out4) noexcept {
  const float* v0 = base;
  const float* v1 = base + stride;
  const float* v2 = base + 2 * stride;
  const float* v3 = base + 3 * stride;
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  for (std::size_t i = 0; i < n; ++i) {
    const float qi = q[i];  // loaded once, reused across the 4 rows
    const float d0 = qi - v0[i];
    const float d1 = qi - v1[i];
    const float d2 = qi - v2[i];
    const float d3 = qi - v3[i];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  out4[0] = s0;
  out4[1] = s1;
  out4[2] = s2;
  out4[3] = s3;
}

void L2SqScanScalar(const float* q, const float* base, std::size_t stride,
                    std::size_t n, std::size_t rows, float* out) noexcept {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    L2SqBatch4Scalar(q, base + r * stride, stride, n, out + r);
  }
  for (; r < rows; ++r) out[r] = L2SqScalar(q, base + r * stride, n);
}

std::size_t L2SqScanFilterScalar(const float* q, float q_norm,
                                 const float* base, const float* norms,
                                 std::size_t stride, std::size_t n,
                                 std::size_t rows, float threshold,
                                 std::uint32_t* out_idx,
                                 float* out_dist) noexcept {
  std::size_t kept = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float dot = IpScalar(q, base + r * stride, n);
    float dist = q_norm + norms[r] - 2.0f * dot;
    if (dist < 0.0f) dist = 0.0f;
    if (dist <= threshold) {
      out_idx[kept] = static_cast<std::uint32_t>(r);
      out_dist[kept] = dist;
      ++kept;
    }
  }
  return kept;
}

constexpr DistanceKernels kScalarKernels = {
    L2SqScalar,     IpScalar,             L2SqBatch4Scalar,
    L2SqScanScalar, L2SqScanFilterScalar, KernelTier::kScalar};

#if JDVS_KERNELS_X86

// ---------------------------------------------------------------------------
// AVX2 + FMA tier: 8-float lane groups, unrolled x2 on the pairwise kernels.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline float HSum256(__m256 v) noexcept {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_movehdup_ps(sum));
  return _mm_cvtss_f32(sum);
}

__attribute__((target("avx2,fma"))) float L2SqAvx2(const float* a,
                                                   const float* b,
                                                   std::size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float total = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

__attribute__((target("avx2,fma"))) float IpAvx2(const float* a,
                                                 const float* b,
                                                 std::size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float total = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx2,fma"))) void L2SqBatch4Avx2(
    const float* q, const float* base, std::size_t stride, std::size_t n,
    float* out4) noexcept {
  const float* v0 = base;
  const float* v1 = base + stride;
  const float* v2 = base + 2 * stride;
  const float* v3 = base + 3 * stride;
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  // Second accumulator bank for the unrolled-x2 main loop: halves the loop
  // branch/counter overhead per lane-group without lengthening any FMA
  // dependency chain (each bank's chain still sees one FMA per iteration).
  __m256 b0 = _mm256_setzero_ps();
  __m256 b1 = _mm256_setzero_ps();
  __m256 b2 = _mm256_setzero_ps();
  __m256 b3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 qa = _mm256_loadu_ps(q + i);  // one load feeds 4 rows
    const __m256 qb = _mm256_loadu_ps(q + i + 8);
    const __m256 d0a = _mm256_sub_ps(qa, _mm256_loadu_ps(v0 + i));
    const __m256 d0b = _mm256_sub_ps(qb, _mm256_loadu_ps(v0 + i + 8));
    const __m256 d1a = _mm256_sub_ps(qa, _mm256_loadu_ps(v1 + i));
    const __m256 d1b = _mm256_sub_ps(qb, _mm256_loadu_ps(v1 + i + 8));
    const __m256 d2a = _mm256_sub_ps(qa, _mm256_loadu_ps(v2 + i));
    const __m256 d2b = _mm256_sub_ps(qb, _mm256_loadu_ps(v2 + i + 8));
    const __m256 d3a = _mm256_sub_ps(qa, _mm256_loadu_ps(v3 + i));
    const __m256 d3b = _mm256_sub_ps(qb, _mm256_loadu_ps(v3 + i + 8));
    a0 = _mm256_fmadd_ps(d0a, d0a, a0);
    b0 = _mm256_fmadd_ps(d0b, d0b, b0);
    a1 = _mm256_fmadd_ps(d1a, d1a, a1);
    b1 = _mm256_fmadd_ps(d1b, d1b, b1);
    a2 = _mm256_fmadd_ps(d2a, d2a, a2);
    b2 = _mm256_fmadd_ps(d2b, d2b, b2);
    a3 = _mm256_fmadd_ps(d3a, d3a, a3);
    b3 = _mm256_fmadd_ps(d3b, d3b, b3);
  }
  a0 = _mm256_add_ps(a0, b0);
  a1 = _mm256_add_ps(a1, b1);
  a2 = _mm256_add_ps(a2, b2);
  a3 = _mm256_add_ps(a3, b3);
  for (; i + 8 <= n; i += 8) {
    const __m256 qv = _mm256_loadu_ps(q + i);
    const __m256 d0 = _mm256_sub_ps(qv, _mm256_loadu_ps(v0 + i));
    const __m256 d1 = _mm256_sub_ps(qv, _mm256_loadu_ps(v1 + i));
    const __m256 d2 = _mm256_sub_ps(qv, _mm256_loadu_ps(v2 + i));
    const __m256 d3 = _mm256_sub_ps(qv, _mm256_loadu_ps(v3 + i));
    a0 = _mm256_fmadd_ps(d0, d0, a0);
    a1 = _mm256_fmadd_ps(d1, d1, a1);
    a2 = _mm256_fmadd_ps(d2, d2, a2);
    a3 = _mm256_fmadd_ps(d3, d3, a3);
  }
  // Transposed finish: hadd pairs lanes of adjacent accumulators, so two
  // hadd levels plus a cross-half add leave [sum a0, sum a1, sum a2, sum a3]
  // in one xmm — ~5 ops total versus 4 independent horizontal reductions.
  const __m256 h01 = _mm256_hadd_ps(a0, a1);
  const __m256 h23 = _mm256_hadd_ps(a2, a3);
  const __m256 h = _mm256_hadd_ps(h01, h23);
  const __m128 sums =
      _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
  _mm_storeu_ps(out4, sums);
  for (; i < n; ++i) {
    const float qi = q[i];
    const float d0 = qi - v0[i];
    const float d1 = qi - v1[i];
    const float d2 = qi - v2[i];
    const float d3 = qi - v3[i];
    out4[0] += d0 * d0;
    out4[1] += d1 * d1;
    out4[2] += d2 * d2;
    out4[3] += d3 * d3;
  }
}

__attribute__((target("avx2,fma"))) void L2SqScanAvx2(
    const float* q, const float* base, std::size_t stride, std::size_t n,
    std::size_t rows, float* out) noexcept {
  // Same-target direct calls: the compiler inlines the batch4 body here, so
  // a whole run costs one indirect dispatch instead of rows/4 of them.
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    L2SqBatch4Avx2(q, base + r * stride, stride, n, out + r);
  }
  for (; r < rows; ++r) out[r] = L2SqAvx2(q, base + r * stride, n);
}

__attribute__((target("avx2,fma"))) std::size_t L2SqScanFilterAvx2(
    const float* q, float q_norm, const float* base, const float* norms,
    std::size_t stride, std::size_t n, std::size_t rows, float threshold,
    std::uint32_t* out_idx, float* out_dist) noexcept {
  // Dot form: one FMA per lane-group per row where the subtract form needs
  // sub+FMA. The subtract form saturates the two FP ports at ~8 cycles per
  // 64-d row; here the binding resource is the load ports (5 loads per
  // lane-group across 4 rows), ~5 cycles per row.
  const __m128 zero4 = _mm_setzero_ps();
  const __m128 thr4 = _mm_set1_ps(threshold);
  const __m128 qn4 = _mm_set1_ps(q_norm);
  const __m128 neg2 = _mm_set1_ps(-2.0f);
  std::size_t kept = 0;
  std::size_t r = 0;
  // 8-row groups: one query load feeds 8 row FMAs, so the load-port floor
  // drops from 5 loads / 4 rows to 9 loads / 8 rows per lane-group (~4.5
  // cycles per 64-d row on two load ports). 8 accumulators + the query
  // vector fit comfortably in the 16 ymm registers. Measured ~6.0 cycles
  // per row L1-resident vs ~7.4 for 4-row groups.
  {
    const __m256 thr8 = _mm256_set1_ps(threshold);
    const __m256 qn8 = _mm256_set1_ps(q_norm);
    const __m256 neg2w = _mm256_set1_ps(-2.0f);
    const __m256 zero8 = _mm256_setzero_ps();
    for (; r + 8 <= rows; r += 8) {
      const float* v0 = base + r * stride;
      __m256 a0 = _mm256_setzero_ps();
      __m256 a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps();
      __m256 a3 = _mm256_setzero_ps();
      __m256 a4 = _mm256_setzero_ps();
      __m256 a5 = _mm256_setzero_ps();
      __m256 a6 = _mm256_setzero_ps();
      __m256 a7 = _mm256_setzero_ps();
      // Software-prefetch the next 8-row group while computing this one.
      // The single-query scan streams the list out of L2 (partitions are
      // bigger than L1) and the hardware prefetcher alone leaves ~15% on
      // the table at this access pattern. Four lines per iteration cover
      // the next group; prefetch is a hint, so running past the block end
      // cannot fault.
      const char* next_group = reinterpret_cast<const char*>(v0 + 8 * stride);
      std::size_t i = 0;
      for (; i + 8 <= n; i += 8) {
        _mm_prefetch(next_group + 32 * i, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 64, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 128, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 192, _MM_HINT_T0);
        const __m256 qv = _mm256_loadu_ps(q + i);  // one load feeds 8 rows
        a0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + i), a0);
        a1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + stride + i), a1);
        a2 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + 2 * stride + i), a2);
        a3 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + 3 * stride + i), a3);
        a4 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + 4 * stride + i), a4);
        a5 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + 5 * stride + i), a5);
        a6 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + 6 * stride + i), a6);
        a7 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + 7 * stride + i), a7);
      }
      // Transposed finish for both 4-row halves, then pack 8 dots in a ymm.
      const __m256 h01 = _mm256_hadd_ps(a0, a1);
      const __m256 h23 = _mm256_hadd_ps(a2, a3);
      const __m256 h45 = _mm256_hadd_ps(a4, a5);
      const __m256 h67 = _mm256_hadd_ps(a6, a7);
      const __m256 hA = _mm256_hadd_ps(h01, h23);
      const __m256 hB = _mm256_hadd_ps(h45, h67);
      const __m128 dotsA = _mm_add_ps(_mm256_castps256_ps128(hA),
                                      _mm256_extractf128_ps(hA, 1));
      const __m128 dotsB = _mm_add_ps(_mm256_castps256_ps128(hB),
                                      _mm256_extractf128_ps(hB, 1));
      __m256 dots =
          _mm256_insertf128_ps(_mm256_castps128_ps256(dotsA), dotsB, 1);
      if (i < n) {  // scalar remainder lanes folded into the dot lanes
        float d8[8];
        _mm256_storeu_ps(d8, dots);
        for (; i < n; ++i) {
          const float qi = q[i];
          for (int row = 0; row < 8; ++row) {
            d8[row] += qi * v0[row * stride + i];
          }
        }
        dots = _mm256_loadu_ps(d8);
      }
      __m256 dist = _mm256_fmadd_ps(
          neg2w, dots, _mm256_add_ps(qn8, _mm256_loadu_ps(norms + r)));
      dist = _mm256_max_ps(dist, zero8);
      const int mask =
          _mm256_movemask_ps(_mm256_cmp_ps(dist, thr8, _CMP_LE_OQ));
      if (mask != 0) {  // rare once the top-k is warm
        float d8[8];
        _mm256_storeu_ps(d8, dist);
        for (int m = mask; m != 0; m &= m - 1) {
          const int lane = __builtin_ctz(static_cast<unsigned>(m));
          out_idx[kept] = static_cast<std::uint32_t>(r) + lane;
          out_dist[kept] = d8[lane];
          ++kept;
        }
      }
    }
  }
  for (; r + 4 <= rows; r += 4) {
    const float* v0 = base + r * stride;
    const float* v1 = v0 + stride;
    const float* v2 = v1 + stride;
    const float* v3 = v2 + stride;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);  // one load feeds 4 rows
      a0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v0 + i), a0);
      a1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v1 + i), a1);
      a2 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v2 + i), a2);
      a3 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(v3 + i), a3);
    }
    // Transposed finish (see L2SqBatch4Avx2): [dot0, dot1, dot2, dot3].
    const __m256 h01 = _mm256_hadd_ps(a0, a1);
    const __m256 h23 = _mm256_hadd_ps(a2, a3);
    const __m256 h = _mm256_hadd_ps(h01, h23);
    __m128 dots =
        _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
    if (i < n) {  // scalar remainder lanes folded into the dot lanes
      float d4[4];
      _mm_storeu_ps(d4, dots);
      for (; i < n; ++i) {
        const float qi = q[i];
        d4[0] += qi * v0[i];
        d4[1] += qi * v1[i];
        d4[2] += qi * v2[i];
        d4[3] += qi * v3[i];
      }
      dots = _mm_loadu_ps(d4);
    }
    __m128 dist = _mm_fmadd_ps(neg2, dots,
                               _mm_add_ps(qn4, _mm_loadu_ps(norms + r)));
    dist = _mm_max_ps(dist, zero4);
    const int mask = _mm_movemask_ps(_mm_cmp_ps(dist, thr4, _CMP_LE_OQ));
    if (mask != 0) {  // rare once the top-k is warm
      float d4[4];
      _mm_storeu_ps(d4, dist);
      for (int m = mask; m != 0; m &= m - 1) {
        const int lane = __builtin_ctz(static_cast<unsigned>(m));
        out_idx[kept] = static_cast<std::uint32_t>(r) + lane;
        out_dist[kept] = d4[lane];
        ++kept;
      }
    }
  }
  for (; r < rows; ++r) {
    const float dot = IpAvx2(q, base + r * stride, n);
    float dist = q_norm + norms[r] - 2.0f * dot;
    if (dist < 0.0f) dist = 0.0f;
    if (dist <= threshold) {
      out_idx[kept] = static_cast<std::uint32_t>(r);
      out_dist[kept] = dist;
      ++kept;
    }
  }
  return kept;
}

const DistanceKernels kAvx2Kernels = {
    L2SqAvx2,     IpAvx2,             L2SqBatch4Avx2,
    L2SqScanAvx2, L2SqScanFilterAvx2, KernelTier::kAvx2};

// ---------------------------------------------------------------------------
// AVX-512F tier: 16-float lane groups; remainder lanes via load masks, so
// there is no scalar tail at all on the pairwise kernels.
// ---------------------------------------------------------------------------

// GCC 12 false positive on `__Y` inside avx512fintrin's _mm512_shuffle_f32x4.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

__attribute__((target("avx512f"))) float L2SqAvx512(const float* a,
                                                    const float* b,
                                                    std::size_t n) noexcept {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < n) {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                   _mm512_maskz_loadu_ps(mask, b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

__attribute__((target("avx512f"))) float IpAvx512(const float* a,
                                                  const float* b,
                                                  std::size_t n) noexcept {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < n) {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << (n - i)) - 1u);
    acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, a + i),
                           _mm512_maskz_loadu_ps(mask, b + i), acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

__attribute__((target("avx512f"))) void L2SqBatch4Avx512(
    const float* q, const float* base, std::size_t stride, std::size_t n,
    float* out4) noexcept {
  const float* v0 = base;
  const float* v1 = base + stride;
  const float* v2 = base + 2 * stride;
  const float* v3 = base + 3 * stride;
  __m512 a0 = _mm512_setzero_ps();
  __m512 a1 = _mm512_setzero_ps();
  __m512 a2 = _mm512_setzero_ps();
  __m512 a3 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 qv = _mm512_loadu_ps(q + i);
    const __m512 d0 = _mm512_sub_ps(qv, _mm512_loadu_ps(v0 + i));
    const __m512 d1 = _mm512_sub_ps(qv, _mm512_loadu_ps(v1 + i));
    const __m512 d2 = _mm512_sub_ps(qv, _mm512_loadu_ps(v2 + i));
    const __m512 d3 = _mm512_sub_ps(qv, _mm512_loadu_ps(v3 + i));
    a0 = _mm512_fmadd_ps(d0, d0, a0);
    a1 = _mm512_fmadd_ps(d1, d1, a1);
    a2 = _mm512_fmadd_ps(d2, d2, a2);
    a3 = _mm512_fmadd_ps(d3, d3, a3);
  }
  if (i < n) {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
    const __m512 d0 = _mm512_sub_ps(qv, _mm512_maskz_loadu_ps(mask, v0 + i));
    const __m512 d1 = _mm512_sub_ps(qv, _mm512_maskz_loadu_ps(mask, v1 + i));
    const __m512 d2 = _mm512_sub_ps(qv, _mm512_maskz_loadu_ps(mask, v2 + i));
    const __m512 d3 = _mm512_sub_ps(qv, _mm512_maskz_loadu_ps(mask, v3 + i));
    a0 = _mm512_fmadd_ps(d0, d0, a0);
    a1 = _mm512_fmadd_ps(d1, d1, a1);
    a2 = _mm512_fmadd_ps(d2, d2, a2);
    a3 = _mm512_fmadd_ps(d3, d3, a3);
  }
  // Transposed finish: fold each zmm to a ymm (upper 256 bits via a 128-bit
  // lane shuffle), then the same two-level hadd combine as the AVX2 kernel
  // leaves [sum a0, sum a1, sum a2, sum a3] in one xmm — far fewer shuffle
  // ops than 4 independent _mm512_reduce_add_ps reductions.
  const __m256 f0 = _mm256_add_ps(
      _mm512_castps512_ps256(a0),
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(a0, a0, 0xEE)));
  const __m256 f1 = _mm256_add_ps(
      _mm512_castps512_ps256(a1),
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(a1, a1, 0xEE)));
  const __m256 f2 = _mm256_add_ps(
      _mm512_castps512_ps256(a2),
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(a2, a2, 0xEE)));
  const __m256 f3 = _mm256_add_ps(
      _mm512_castps512_ps256(a3),
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(a3, a3, 0xEE)));
  const __m256 h01 = _mm256_hadd_ps(f0, f1);
  const __m256 h23 = _mm256_hadd_ps(f2, f3);
  const __m256 h = _mm256_hadd_ps(h01, h23);
  const __m128 sums =
      _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
  _mm_storeu_ps(out4, sums);
}

// "fma" added for the xmm-width _mm_fmadd_ps in the epilogue (avx512f alone
// does not enable the 128-bit FMA intrinsics; every AVX-512F CPU has FMA).
__attribute__((target("avx512f,fma"))) std::size_t L2SqScanFilterAvx512(
    const float* q, float q_norm, const float* base, const float* norms,
    std::size_t stride, std::size_t n, std::size_t rows, float threshold,
    std::uint32_t* out_idx, float* out_dist) noexcept {
  const __m128 zero4 = _mm_setzero_ps();
  const __m128 thr4 = _mm_set1_ps(threshold);
  const __m128 qn4 = _mm_set1_ps(q_norm);
  const __m128 neg2 = _mm_set1_ps(-2.0f);
  std::size_t kept = 0;
  std::size_t r = 0;
  // 8-row groups + prefetch of the next group; see L2SqScanFilterAvx2 for
  // the load-port and streaming rationale. 8 zmm accumulators + the query
  // vector use 9 of the 32 zmm registers.
  {
    const __m256 thr8 = _mm256_set1_ps(threshold);
    const __m256 qn8 = _mm256_set1_ps(q_norm);
    const __m256 neg2w = _mm256_set1_ps(-2.0f);
    const __m256 zero8 = _mm256_setzero_ps();
    for (; r + 8 <= rows; r += 8) {
      const float* v0 = base + r * stride;
      __m512 a0 = _mm512_setzero_ps();
      __m512 a1 = _mm512_setzero_ps();
      __m512 a2 = _mm512_setzero_ps();
      __m512 a3 = _mm512_setzero_ps();
      __m512 a4 = _mm512_setzero_ps();
      __m512 a5 = _mm512_setzero_ps();
      __m512 a6 = _mm512_setzero_ps();
      __m512 a7 = _mm512_setzero_ps();
      const char* next_group = reinterpret_cast<const char*>(v0 + 8 * stride);
      std::size_t i = 0;
      for (; i + 16 <= n; i += 16) {
        _mm_prefetch(next_group + 32 * i, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 64, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 128, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 192, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 256, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 320, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 384, _MM_HINT_T0);
        _mm_prefetch(next_group + 32 * i + 448, _MM_HINT_T0);
        const __m512 qv = _mm512_loadu_ps(q + i);  // one load feeds 8 rows
        a0 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + i), a0);
        a1 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + stride + i), a1);
        a2 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + 2 * stride + i), a2);
        a3 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + 3 * stride + i), a3);
        a4 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + 4 * stride + i), a4);
        a5 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + 5 * stride + i), a5);
        a6 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + 6 * stride + i), a6);
        a7 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + 7 * stride + i), a7);
      }
      if (i < n) {
        const __mmask16 mask = static_cast<__mmask16>((1u << (n - i)) - 1u);
        const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
        a0 = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, v0 + i), a0);
        a1 = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, v0 + stride + i),
                             a1);
        a2 = _mm512_fmadd_ps(
            qv, _mm512_maskz_loadu_ps(mask, v0 + 2 * stride + i), a2);
        a3 = _mm512_fmadd_ps(
            qv, _mm512_maskz_loadu_ps(mask, v0 + 3 * stride + i), a3);
        a4 = _mm512_fmadd_ps(
            qv, _mm512_maskz_loadu_ps(mask, v0 + 4 * stride + i), a4);
        a5 = _mm512_fmadd_ps(
            qv, _mm512_maskz_loadu_ps(mask, v0 + 5 * stride + i), a5);
        a6 = _mm512_fmadd_ps(
            qv, _mm512_maskz_loadu_ps(mask, v0 + 6 * stride + i), a6);
        a7 = _mm512_fmadd_ps(
            qv, _mm512_maskz_loadu_ps(mask, v0 + 7 * stride + i), a7);
      }
      // Fold each zmm to ymm, then the transposed-hadd finish per 4-row
      // half; pack the 8 dots into one ymm for the distance epilogue.
      const __m256 f0 = _mm256_add_ps(
          _mm512_castps512_ps256(a0),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a0, a0, 0xEE)));
      const __m256 f1 = _mm256_add_ps(
          _mm512_castps512_ps256(a1),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a1, a1, 0xEE)));
      const __m256 f2 = _mm256_add_ps(
          _mm512_castps512_ps256(a2),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a2, a2, 0xEE)));
      const __m256 f3 = _mm256_add_ps(
          _mm512_castps512_ps256(a3),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a3, a3, 0xEE)));
      const __m256 f4 = _mm256_add_ps(
          _mm512_castps512_ps256(a4),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a4, a4, 0xEE)));
      const __m256 f5 = _mm256_add_ps(
          _mm512_castps512_ps256(a5),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a5, a5, 0xEE)));
      const __m256 f6 = _mm256_add_ps(
          _mm512_castps512_ps256(a6),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a6, a6, 0xEE)));
      const __m256 f7 = _mm256_add_ps(
          _mm512_castps512_ps256(a7),
          _mm512_castps512_ps256(_mm512_shuffle_f32x4(a7, a7, 0xEE)));
      const __m256 h01 = _mm256_hadd_ps(f0, f1);
      const __m256 h23 = _mm256_hadd_ps(f2, f3);
      const __m256 h45 = _mm256_hadd_ps(f4, f5);
      const __m256 h67 = _mm256_hadd_ps(f6, f7);
      const __m256 hA = _mm256_hadd_ps(h01, h23);
      const __m256 hB = _mm256_hadd_ps(h45, h67);
      const __m128 dotsA = _mm_add_ps(_mm256_castps256_ps128(hA),
                                      _mm256_extractf128_ps(hA, 1));
      const __m128 dotsB = _mm_add_ps(_mm256_castps256_ps128(hB),
                                      _mm256_extractf128_ps(hB, 1));
      const __m256 dots =
          _mm256_insertf128_ps(_mm256_castps128_ps256(dotsA), dotsB, 1);
      __m256 dist = _mm256_fmadd_ps(
          neg2w, dots, _mm256_add_ps(qn8, _mm256_loadu_ps(norms + r)));
      dist = _mm256_max_ps(dist, zero8);
      const int mask =
          _mm256_movemask_ps(_mm256_cmp_ps(dist, thr8, _CMP_LE_OQ));
      if (mask != 0) {
        float d8[8];
        _mm256_storeu_ps(d8, dist);
        for (int m = mask; m != 0; m &= m - 1) {
          const int lane = __builtin_ctz(static_cast<unsigned>(m));
          out_idx[kept] = static_cast<std::uint32_t>(r) + lane;
          out_dist[kept] = d8[lane];
          ++kept;
        }
      }
    }
  }
  for (; r + 4 <= rows; r += 4) {
    const float* v0 = base + r * stride;
    const float* v1 = v0 + stride;
    const float* v2 = v1 + stride;
    const float* v3 = v2 + stride;
    __m512 a0 = _mm512_setzero_ps();
    __m512 a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps();
    __m512 a3 = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      a0 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v0 + i), a0);
      a1 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v1 + i), a1);
      a2 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v2 + i), a2);
      a3 = _mm512_fmadd_ps(qv, _mm512_loadu_ps(v3 + i), a3);
    }
    if (i < n) {
      const __mmask16 mask = static_cast<__mmask16>((1u << (n - i)) - 1u);
      const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
      a0 = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, v0 + i), a0);
      a1 = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, v1 + i), a1);
      a2 = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, v2 + i), a2);
      a3 = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, v3 + i), a3);
    }
    // Same fold + transposed-hadd finish as L2SqBatch4Avx512.
    const __m256 f0 = _mm256_add_ps(
        _mm512_castps512_ps256(a0),
        _mm512_castps512_ps256(_mm512_shuffle_f32x4(a0, a0, 0xEE)));
    const __m256 f1 = _mm256_add_ps(
        _mm512_castps512_ps256(a1),
        _mm512_castps512_ps256(_mm512_shuffle_f32x4(a1, a1, 0xEE)));
    const __m256 f2 = _mm256_add_ps(
        _mm512_castps512_ps256(a2),
        _mm512_castps512_ps256(_mm512_shuffle_f32x4(a2, a2, 0xEE)));
    const __m256 f3 = _mm256_add_ps(
        _mm512_castps512_ps256(a3),
        _mm512_castps512_ps256(_mm512_shuffle_f32x4(a3, a3, 0xEE)));
    const __m256 h01 = _mm256_hadd_ps(f0, f1);
    const __m256 h23 = _mm256_hadd_ps(f2, f3);
    const __m256 h = _mm256_hadd_ps(h01, h23);
    const __m128 dots =
        _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
    __m128 dist = _mm_fmadd_ps(neg2, dots,
                               _mm_add_ps(qn4, _mm_loadu_ps(norms + r)));
    dist = _mm_max_ps(dist, zero4);
    const int mask = _mm_movemask_ps(_mm_cmp_ps(dist, thr4, _CMP_LE_OQ));
    if (mask != 0) {
      float d4[4];
      _mm_storeu_ps(d4, dist);
      for (int m = mask; m != 0; m &= m - 1) {
        const int lane = __builtin_ctz(static_cast<unsigned>(m));
        out_idx[kept] = static_cast<std::uint32_t>(r) + lane;
        out_dist[kept] = d4[lane];
        ++kept;
      }
    }
  }
  for (; r < rows; ++r) {
    const float dot = IpAvx512(q, base + r * stride, n);
    float dist = q_norm + norms[r] - 2.0f * dot;
    if (dist < 0.0f) dist = 0.0f;
    if (dist <= threshold) {
      out_idx[kept] = static_cast<std::uint32_t>(r);
      out_dist[kept] = dist;
      ++kept;
    }
  }
  return kept;
}

__attribute__((target("avx512f"))) void L2SqScanAvx512(
    const float* q, const float* base, std::size_t stride, std::size_t n,
    std::size_t rows, float* out) noexcept {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    L2SqBatch4Avx512(q, base + r * stride, stride, n, out + r);
  }
  for (; r < rows; ++r) out[r] = L2SqAvx512(q, base + r * stride, n);
}

const DistanceKernels kAvx512Kernels = {
    L2SqAvx512,     IpAvx512,             L2SqBatch4Avx512,
    L2SqScanAvx512, L2SqScanFilterAvx512, KernelTier::kAvx512};

#pragma GCC diagnostic pop

#endif  // JDVS_KERNELS_X86

bool CpuSupportsTier(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar:
      return true;
#if JDVS_KERNELS_X86
    case KernelTier::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case KernelTier::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    case KernelTier::kAvx2:
    case KernelTier::kAvx512:
      return false;
#endif
  }
  return false;
}

const DistanceKernels* TableForTier(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar:
      return &kScalarKernels;
#if JDVS_KERNELS_X86
    case KernelTier::kAvx2:
      return &kAvx2Kernels;
    case KernelTier::kAvx512:
      return &kAvx512Kernels;
#else
    case KernelTier::kAvx2:
    case KernelTier::kAvx512:
      return nullptr;
#endif
  }
  return nullptr;
}

// Parses JDVS_KERNEL_DISPATCH; "auto" / unset / unknown values mean "highest
// supported" (unknown values warn once).
KernelTier ResolveTier() noexcept {
  KernelTier best = KernelTier::kScalar;
  if (CpuSupportsTier(KernelTier::kAvx2)) best = KernelTier::kAvx2;
  if (CpuSupportsTier(KernelTier::kAvx512)) best = KernelTier::kAvx512;

  const char* env = std::getenv("JDVS_KERNEL_DISPATCH");
  if (env == nullptr) return best;
  const std::string_view want(env);
  if (want == "auto" || want.empty()) return best;
  if (want == "scalar") return KernelTier::kScalar;
  if (want == "avx2") {
    if (CpuSupportsTier(KernelTier::kAvx2)) return KernelTier::kAvx2;
    JDVS_LOG(kWarning) << "JDVS_KERNEL_DISPATCH=avx2 unsupported on this CPU; "
                          "falling back to scalar";
    return KernelTier::kScalar;
  }
  if (want == "avx512") {
    if (CpuSupportsTier(KernelTier::kAvx512)) return KernelTier::kAvx512;
    JDVS_LOG(kWarning) << "JDVS_KERNEL_DISPATCH=avx512 unsupported on this "
                          "CPU; falling back to "
                       << KernelTierName(best);
    return best;
  }
  JDVS_LOG(kWarning) << "unknown JDVS_KERNEL_DISPATCH value '" << want
                     << "'; using " << KernelTierName(best);
  return best;
}

std::atomic<const DistanceKernels*> g_active{nullptr};

const DistanceKernels* ResolveActive() noexcept {
  // Idempotent, so a racy double-resolve at startup is harmless: both
  // threads compute the same table pointer.
  const DistanceKernels* table = TableForTier(ResolveTier());
  g_active.store(table, std::memory_order_release);
  return table;
}

}  // namespace

const char* KernelTierName(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const DistanceKernels& Kernels() noexcept {
  const DistanceKernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = ResolveActive();
  return *table;
}

KernelTier ActiveKernelTier() noexcept { return Kernels().tier; }

const DistanceKernels* KernelsForTier(KernelTier tier) noexcept {
  if (!CpuSupportsTier(tier)) return nullptr;
  return TableForTier(tier);
}

bool ForceKernelTier(KernelTier tier) noexcept {
  const DistanceKernels* table = KernelsForTier(tier);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

}  // namespace jdvs
