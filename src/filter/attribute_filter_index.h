// Per-partition attribute filter index: the index-side half of hybrid
// filtered search.
//
// Generalizes ValidityBitmap's single-writer / wait-free-reader
// chunked-atomic design from one global bitmap to one bitmap per category
// tag, and adds columnar copies of the numeric attributes (sales,
// price_cents, praise) aligned with LocalId. The forward index already holds
// these values, but one ForwardEntry is a cache line of mostly-irrelevant
// fields (URLs, ids); evaluating a numeric range over thousands of locals
// wants a dense contiguous column, same argument as ScanBlock vs the
// per-candidate feature pointer chase.
//
// RediSearch's hybrid queries (SNIPPETS.md Snippet 1) work the same way:
// the structured half of the query is resolved to a docid set first, then
// intersected against the vector candidates. Materialize() is that first
// half: it folds the category bitmaps, the validity bitmap and the numeric
// columns into one plain (non-atomic) bitmap the scan loop tests — the
// scan-time strategy choice (pre-filter sub-blocks vs post-filter
// survivors vs widen nprobe) belongs to the IVF indexes, keyed off the
// selectivity this returns.
//
// Concurrency contract: exactly one writer (the partition's searcher,
// calling Append/UpdateNumeric in the same sequence it mutates the owning
// index), any number of concurrent Materialize() readers; no locks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "filter/filter_expression.h"
#include "index/bitmap.h"
#include "mq/message.h"
#include "vecmath/vector.h"

namespace jdvs {

// Query-time evaluation result: one bit per LocalId < universe, snapshotted
// at materialization. Plain words — the per-query filter is private to the
// query, so tests in the scan hot loop are non-atomic loads.
struct MaterializedFilter {
  std::vector<std::uint64_t> words;
  std::size_t universe = 0;  // locals considered (index size at materialize)
  std::size_t matches = 0;   // popcount of words

  bool Test(LocalId local) const noexcept {
    const std::size_t w = local / 64;
    if (w >= words.size()) return false;
    return (words[w] >> (local % 64)) & 1ULL;
  }

  // Word covering locals [w*64, w*64+64); out-of-range reads as dead.
  std::uint64_t WordAt(std::size_t w) const noexcept {
    return w < words.size() ? words[w] : 0;
  }

  double selectivity() const noexcept {
    return universe == 0 ? 0.0
                         : static_cast<double>(matches) /
                               static_cast<double>(universe);
  }
};

class AttributeFilterIndex {
 public:
  AttributeFilterIndex();

  AttributeFilterIndex(const AttributeFilterIndex&) = delete;
  AttributeFilterIndex& operator=(const AttributeFilterIndex&) = delete;

  // ---- Writer operations (single writer, same thread as the owning
  // index's writer ops) ----

  // Registers the next local id (must be called in append order: the entry
  // being registered is local id size()). Sets the bit in the category's
  // bitmap and appends the numeric column values.
  void Append(CategoryId category, const ProductAttributes& attributes);

  // Updates the numeric columns for an existing local id. Wait-free;
  // mirrors ForwardIndex::UpdateNumeric. The category tag is immutable
  // after append, like ForwardEntry::category.
  void UpdateNumeric(LocalId local,
                     const ProductAttributes& attributes) noexcept;

  // ---- Reader operations (any thread, wait-free) ----

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }
  std::size_t num_categories() const noexcept {
    return num_categories_.load(std::memory_order_acquire);
  }

  // Category bitmap, or nullptr if no entry with that tag was ever appended.
  const ValidityBitmap* CategoryBitmap(CategoryId category) const noexcept;

  // Numeric column read for one local id (0 for out-of-range locals).
  std::uint64_t NumericAt(FilterField field, LocalId local) const noexcept;

  // Evaluates `expr AND category_filter AND validity` over every local id
  // published at call time. `category_filter` is the legacy single-tag
  // QueryOptions knob (kNoCategoryFilter = none); `validity` may be null
  // (the filter_invalid_during_scan=false ablation keeps validity out of
  // the bitmap and defers it to materialization, matching the unfiltered
  // scan's contract). Word-wise ANDs for the bitmap parts, then per-set-bit
  // column tests for the numeric ranges.
  MaterializedFilter Materialize(const FilterExpression& expr,
                                 CategoryId category_filter,
                                 const ValidityBitmap* validity) const;

  // Writer-side checksum over the numeric columns (order-sensitive mix of
  // every published value) — the snapshot stamps this so load can verify the
  // rebuilt filter state matches what was saved.
  std::uint64_t ColumnChecksum() const noexcept;

 private:
  static constexpr std::size_t kColumnChunk = 4096;  // values per chunk
  // Open-addressed category slot table capacity. Power of two; sized for
  // catalogs with a few thousand distinct tags (the testbed uses 50).
  static constexpr std::size_t kCategorySlots = 4096;

  using Column = std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>>;

  std::atomic<std::uint64_t>* ColumnCell(Column& column,
                                         std::size_t index) noexcept;
  const std::atomic<std::uint64_t>* ColumnCell(const Column& column,
                                               std::size_t index) const noexcept;
  void ColumnAppend(Column& column, std::size_t index, std::uint64_t value);

  // Returns the bitmap for `category`, inserting a new slot on first use
  // (writer only). Throws std::runtime_error if the slot table is full.
  ValidityBitmap* BitmapForInsert(CategoryId category);

  // Per-category bitmaps behind a fixed-capacity open-addressed table:
  // slot key is category+1 (0 = empty), published with release ordering
  // after the bitmap pointer, so a reader that sees the key sees the
  // bitmap. Bitmaps are owned by bitmaps_ and never move or die.
  struct CategorySlot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<ValidityBitmap*> bitmap{nullptr};
  };
  std::unique_ptr<CategorySlot[]> category_slots_;
  std::vector<std::unique_ptr<ValidityBitmap>> bitmaps_;  // writer-owned
  std::atomic<std::size_t> num_categories_{0};

  // LocalId-aligned numeric columns (stable chunks, like ForwardIndex).
  Column sales_;
  Column price_cents_;
  Column praise_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace jdvs
