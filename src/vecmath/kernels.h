// Runtime-dispatched SIMD distance kernels.
//
// Every query in the system bottoms out in a handful of inner loops: L2^2 /
// inner-product between float vectors and one-query-vs-block scans over
// contiguous posting blocks. This layer expresses each of those as a
// function pointer in a DistanceKernels table, resolved exactly once at
// startup from cpuid (and an optional JDVS_KERNEL_DISPATCH env override)
// into scalar / AVX2 / AVX-512 variants. Call sites use Kernels().l2sq(...)
// — or the thin wrappers in vecmath/distance.h — and never know which tier
// is running.
//
// Contract shared by every tier (verified by tests/kernels_test.cc):
//  * identical semantics across tiers within 1e-4 relative tolerance for any
//    dimension, including remainder lanes (dims not divisible by 8/16);
//  * no alignment requirement (unaligned loads are used; aligned inputs are
//    simply faster). Padded-and-zeroed storage (vecmath/aligned.h) lets
//    batch kernels run whole cache lines with the padding contributing 0.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jdvs {

// Dispatch tier, ordered by capability. Values are stable: they are exported
// as the jdvs_kernel_dispatch_tier gauge.
enum class KernelTier : int {
  kScalar = 0,
  kAvx2 = 1,    // AVX2 + FMA, 8 floats per lane-group
  kAvx512 = 2,  // AVX-512F, 16 floats per lane-group
};

const char* KernelTierName(KernelTier tier) noexcept;

// The kernel table. All pointers are non-null in every table.
struct DistanceKernels {
  // Squared Euclidean distance over n floats.
  float (*l2sq)(const float* a, const float* b, std::size_t n) noexcept;

  // Inner product over n floats.
  float (*ip)(const float* a, const float* b, std::size_t n) noexcept;

  // One query against 4 vectors stored contiguously with a fixed stride (in
  // floats, >= n): out[i] = L2^2(q, base + i*stride). The query is loaded
  // once per lane-group and reused across the 4 rows, which is what makes
  // contiguous posting blocks faster than pointer-chasing per vector.
  void (*l2sq_batch4)(const float* q, const float* base, std::size_t stride,
                      std::size_t n, float* out4) noexcept;

  // Run scan: one query against `rows` consecutive stride-spaced rows:
  // out[r] = L2^2(q, base + r*stride, n). Semantically a loop of
  // l2sq_batch4 (same lane math, same results), but the whole posting run
  // goes through one dispatch call, so the indirect-call and prologue cost
  // is paid per run instead of per 4 candidates — on short rows (the 64-d
  // testbed) that overhead is a third of the scan.
  void (*l2sq_scan)(const float* q, const float* base, std::size_t stride,
                    std::size_t n, std::size_t rows, float* out) noexcept;

  // Fused scan + top-k admission in the dot-product form of the distance:
  //   dist[r] = max(0, q_norm + norms[r] - 2 * <q, base + r*stride>)
  // where q_norm = ||q||^2 and norms[r] = ||row r||^2 (precomputed at append
  // time — ScanBlock stores them as the per-entry aux rider). Rows with
  // dist <= threshold are compacted: out_idx[j] = row index (ascending),
  // out_dist[j] = distance; returns how many survived. out_idx/out_dist need
  // room for `rows` entries.
  //
  // Two things make this the IVF hot-loop kernel rather than l2sq_scan
  // followed by a threshold pass over its distances:
  //  * the dot form halves the FP work per lane-group (1 FMA vs sub+FMA) —
  //    the subtract form is FP-port-bound, so this is a real ~1.5x;
  //  * fusing the threshold test removes the dists round-trip through memory
  //    and the second pass entirely.
  // The price is the classic cancellation: computing a - b where a ~= b
  // loses absolute accuracy ~eps * (q_norm + norms[r]) when q and the row
  // are nearly identical. All tiers use the same formulation (so tiers agree
  // to lane-reduction rounding, ~1e-6 relative), but results differ from
  // l2sq/l2sq_scan by up to ~1e-5 * (q_norm + norms[r]) absolute — callers
  // that need the subtract form's behavior (ground truth, tests) keep using
  // l2sq_scan.
  std::size_t (*l2sq_scan_filter)(const float* q, float q_norm,
                                  const float* base, const float* norms,
                                  std::size_t stride, std::size_t n,
                                  std::size_t rows, float threshold,
                                  std::uint32_t* out_idx,
                                  float* out_dist) noexcept;

  KernelTier tier = KernelTier::kScalar;
};

// The active kernel table. Resolved once (thread-safe) on first use: the
// highest tier the CPU supports, clamped by JDVS_KERNEL_DISPATCH
// (scalar|avx2|avx512|auto). Subsequent calls are one atomic pointer load.
const DistanceKernels& Kernels() noexcept;

KernelTier ActiveKernelTier() noexcept;

// The kernel table for a specific tier, or nullptr when this CPU cannot run
// it. Bench/test hook: lets the roofline measure every supported tier and
// property tests compare each tier against scalar.
const DistanceKernels* KernelsForTier(KernelTier tier) noexcept;

// Forces the active table to `tier` for subsequent Kernels() calls. Returns
// false (and changes nothing) when the CPU lacks the tier. Bench/test only:
// not synchronized with concurrent searches beyond the atomic pointer swap.
bool ForceKernelTier(KernelTier tier) noexcept;

}  // namespace jdvs
