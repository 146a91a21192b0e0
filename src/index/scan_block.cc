#include "index/scan_block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace jdvs {
namespace {

// First chunk size; every subsequent chunk doubles. 64 doublings cover any
// addressable list, so the chunk vector can be reserved once up front and
// its elements never move under a concurrent reader.
constexpr std::size_t kFirstChunkEntries = 16;
constexpr std::size_t kMaxChunks = 64;

}  // namespace

ScanBlock::ScanBlock(std::size_t payload_stride_bytes,
                     std::size_t max_run_entries)
    : stride_(payload_stride_bytes),
      max_run_entries_(std::max<std::size_t>(max_run_entries, 1)) {
  assert(stride_ > 0);
  chunks_.reserve(kMaxChunks);
}

void ScanBlock::Append(LocalId id, const void* payload, float aux) {
  const std::size_t index = size_.load(std::memory_order_relaxed);
  if (chunks_.empty() ||
      index == chunks_.back().begin + chunks_.back().capacity) {
    assert(chunks_.size() < kMaxChunks);
    Chunk c;
    c.begin = index;
    // Delta chunks after a frozen prefix restart at the small size: the
    // prefix can be arbitrarily large and doubling from it would make the
    // first real-time append allocate a prefix-sized heap block.
    c.capacity = (chunks_.empty() || chunks_.back().frozen)
                     ? kFirstChunkEntries
                     : chunks_.back().capacity * 2;
    // No zero-fill: every entry is written in full below before size_
    // publishes it, and no reader looks past the published size.
    c.owned_payload =
        AllocateAlignedUninitialized<std::uint8_t>(c.capacity * stride_);
    c.owned_ids = AllocateAlignedUninitialized<LocalId>(c.capacity);
    c.owned_aux = AllocateAlignedUninitialized<float>(c.capacity);
    c.payload = c.owned_payload.get();
    c.ids = c.owned_ids.get();
    c.aux = c.owned_aux.get();
    allocated_bytes_.fetch_add(
        c.capacity * (stride_ + sizeof(LocalId) + sizeof(float)),
        std::memory_order_relaxed);
    chunks_.push_back(std::move(c));
    // Publish the new chunk's pointers before any entry in it can become
    // visible through size_.
    chunk_count_.store(chunks_.size(), std::memory_order_release);
  }
  Chunk& chunk = chunks_.back();
  assert(!chunk.frozen);
  const std::size_t offset = index - chunk.begin;
  std::memcpy(chunk.owned_payload.get() + offset * stride_, payload, stride_);
  chunk.owned_ids.get()[offset] = id;
  chunk.owned_aux.get()[offset] = aux;
  size_.store(index + 1, std::memory_order_release);
}

void ScanBlock::AttachFrozen(AlignedArray<LocalId> ids, AlignedArray<float> aux,
                             const std::uint8_t* payload, std::size_t count) {
  assert(size_.load(std::memory_order_relaxed) == 0 && chunks_.empty());
  assert(IsCacheAligned(payload));
  if (count == 0) return;
  Chunk c;
  c.begin = 0;
  c.capacity = count;
  c.owned_ids = std::move(ids);
  c.owned_aux = std::move(aux);
  c.payload = payload;  // external, disk-backed; not counted in memory_bytes
  c.ids = c.owned_ids.get();
  c.aux = c.owned_aux.get();
  c.frozen = true;
  allocated_bytes_.fetch_add(count * (sizeof(LocalId) + sizeof(float)),
                             std::memory_order_relaxed);
  chunks_.push_back(std::move(c));
  frozen_entries_ = count;
  chunk_count_.store(chunks_.size(), std::memory_order_release);
  size_.store(count, std::memory_order_release);
}

bool ScanBlock::storage_aligned() const noexcept {
  const std::size_t chunks = chunk_count_.load(std::memory_order_acquire);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (!IsCacheAligned(chunks_[c].payload)) return false;
  }
  return true;
}

}  // namespace jdvs
