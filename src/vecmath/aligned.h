// Cache-line-aligned allocation for SIMD-scanned storage.
//
// The kernel layer (vecmath/kernels.h) wants 64-byte-aligned, zero-padded
// buffers: aligned loads are the fast path on every x86 tier, and zeroed
// padding lanes contribute exactly 0 to L2^2 / IP accumulators, so a kernel
// can run over the padded width with no remainder loop. This header is the
// one place that alignment/padding policy lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

namespace jdvs {

// One cache line; also the widest SIMD register (AVX-512 zmm) in bytes.
inline constexpr std::size_t kCacheLineBytes = 64;

// Floats per cache line: the granule vector dimensions are padded to.
inline constexpr std::size_t kFloatsPerCacheLine =
    kCacheLineBytes / sizeof(float);

// Rounds a float dimension up to a whole number of cache lines (e.g. 60 ->
// 64, 64 -> 64, 65 -> 80). The padded tail must be kept zeroed.
constexpr std::size_t PaddedDim(std::size_t dim) noexcept {
  return (dim + kFloatsPerCacheLine - 1) / kFloatsPerCacheLine *
         kFloatsPerCacheLine;
}

constexpr bool IsCacheAligned(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes) == 0;
}

struct AlignedFreeDeleter {
  void operator()(void* p) const noexcept { std::free(p); }
};

template <typename T>
using AlignedArray = std::unique_ptr<T[], AlignedFreeDeleter>;

// Bytes an aligned allocation of `count` Ts takes: aligned_alloc requires a
// nonzero multiple of the alignment.
template <typename T>
constexpr std::size_t AlignedAllocationBytes(std::size_t count) noexcept {
  const std::size_t bytes =
      (count * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
      kCacheLineBytes;
  return bytes == 0 ? kCacheLineBytes : bytes;
}

// Allocates `count` Ts at 64-byte alignment and leaves them uninitialized:
// for storage whose every element is written before anything reads it
// (trivial types only — freed without destructors).
template <typename T>
AlignedArray<T> AllocateAlignedUninitialized(std::size_t count) {
  static_assert(std::is_trivial_v<T>,
                "aligned storage is raw memory: trivial payloads only");
  static_assert(kCacheLineBytes % alignof(T) == 0);
  void* p =
      std::aligned_alloc(kCacheLineBytes, AlignedAllocationBytes<T>(count));
  if (p == nullptr) throw std::bad_alloc();
  return AlignedArray<T>(static_cast<T*>(p));
}

// Allocates `count` Ts at 64-byte alignment, zero-initialized.
template <typename T>
AlignedArray<T> AllocateAligned(std::size_t count) {
  AlignedArray<T> array = AllocateAlignedUninitialized<T>(count);
  std::memset(array.get(), 0, AlignedAllocationBytes<T>(count));
  return array;
}

}  // namespace jdvs
