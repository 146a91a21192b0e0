#include "filter/attribute_filter_index.h"

#include <bit>
#include <stdexcept>

#include "common/hash.h"

namespace jdvs {
namespace {

std::uint64_t TailMask(std::size_t bits) noexcept {
  const std::size_t rem = bits % 64;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

}  // namespace

AttributeFilterIndex::AttributeFilterIndex()
    : category_slots_(std::make_unique<CategorySlot[]>(kCategorySlots)) {
  bitmaps_.reserve(kCategorySlots);
}

std::atomic<std::uint64_t>* AttributeFilterIndex::ColumnCell(
    Column& column, std::size_t index) noexcept {
  return &column[index / kColumnChunk][index % kColumnChunk];
}

const std::atomic<std::uint64_t>* AttributeFilterIndex::ColumnCell(
    const Column& column, std::size_t index) const noexcept {
  return &column[index / kColumnChunk][index % kColumnChunk];
}

void AttributeFilterIndex::ColumnAppend(Column& column, std::size_t index,
                                        std::uint64_t value) {
  if (index / kColumnChunk >= column.size()) {
    column.push_back(
        std::make_unique<std::atomic<std::uint64_t>[]>(kColumnChunk));
  }
  ColumnCell(column, index)->store(value, std::memory_order_release);
}

ValidityBitmap* AttributeFilterIndex::BitmapForInsert(CategoryId category) {
  const std::uint64_t key = std::uint64_t{category} + 1;
  std::size_t slot = Mix64(key) & (kCategorySlots - 1);
  for (std::size_t probes = 0; probes < kCategorySlots; ++probes) {
    const std::uint64_t existing =
        category_slots_[slot].key.load(std::memory_order_acquire);
    if (existing == key) {
      return category_slots_[slot].bitmap.load(std::memory_order_acquire);
    }
    if (existing == 0) {
      bitmaps_.push_back(std::make_unique<ValidityBitmap>());
      ValidityBitmap* bitmap = bitmaps_.back().get();
      // Publish the bitmap pointer before the key: a reader that observes
      // the key observes the bitmap (single writer, so no insert races).
      category_slots_[slot].bitmap.store(bitmap, std::memory_order_release);
      category_slots_[slot].key.store(key, std::memory_order_release);
      num_categories_.fetch_add(1, std::memory_order_release);
      return bitmap;
    }
    slot = (slot + 1) & (kCategorySlots - 1);
  }
  throw std::runtime_error(
      "AttributeFilterIndex: category slot table full (too many distinct "
      "category tags)");
}

const ValidityBitmap* AttributeFilterIndex::CategoryBitmap(
    CategoryId category) const noexcept {
  const std::uint64_t key = std::uint64_t{category} + 1;
  std::size_t slot = Mix64(key) & (kCategorySlots - 1);
  for (std::size_t probes = 0; probes < kCategorySlots; ++probes) {
    const std::uint64_t existing =
        category_slots_[slot].key.load(std::memory_order_acquire);
    if (existing == key) {
      return category_slots_[slot].bitmap.load(std::memory_order_acquire);
    }
    if (existing == 0) return nullptr;
    slot = (slot + 1) & (kCategorySlots - 1);
  }
  return nullptr;
}

void AttributeFilterIndex::Append(CategoryId category,
                                  const ProductAttributes& attributes) {
  const std::size_t local = size_.load(std::memory_order_relaxed);
  ColumnAppend(sales_, local, attributes.sales);
  ColumnAppend(price_cents_, local, attributes.price_cents);
  ColumnAppend(praise_, local, attributes.praise);
  BitmapForInsert(category)->Set(local, true);
  size_.store(local + 1, std::memory_order_release);
}

void AttributeFilterIndex::UpdateNumeric(
    LocalId local, const ProductAttributes& attributes) noexcept {
  if (local >= size_.load(std::memory_order_acquire)) return;
  ColumnCell(sales_, local)->store(attributes.sales,
                                   std::memory_order_release);
  ColumnCell(price_cents_, local)
      ->store(attributes.price_cents, std::memory_order_release);
  ColumnCell(praise_, local)->store(attributes.praise,
                                    std::memory_order_release);
}

std::uint64_t AttributeFilterIndex::NumericAt(FilterField field,
                                              LocalId local) const noexcept {
  if (local >= size_.load(std::memory_order_acquire)) return 0;
  switch (field) {
    case FilterField::kSales:
      return ColumnCell(sales_, local)->load(std::memory_order_acquire);
    case FilterField::kPriceCents:
      return ColumnCell(price_cents_, local)->load(std::memory_order_acquire);
    case FilterField::kPraise:
      return ColumnCell(praise_, local)->load(std::memory_order_acquire);
    case FilterField::kCategory:
      break;  // tags live in the bitmaps, not a column
  }
  return 0;
}

MaterializedFilter AttributeFilterIndex::Materialize(
    const FilterExpression& expr, const ValidityBitmap* validity) const {
  MaterializedFilter out;
  const std::size_t n = size_.load(std::memory_order_acquire);
  out.universe = n;
  if (n == 0) return out;
  const std::size_t num_words = (n + 63) / 64;
  out.words.assign(num_words, ~std::uint64_t{0});
  out.words.back() &= TailMask(n);

  // Bitmap phase: category predicates, then validity — all word-wise ANDs.
  std::vector<std::uint64_t> range_scratch;
  for (const FilterPredicate& p : expr.predicates()) {
    if (p.field != FilterField::kCategory) continue;
    if (p.min == p.max) {
      // One tag's bitmap (a missing tag kills every bit: no entry ever
      // carried it).
      const ValidityBitmap* bitmap =
          CategoryBitmap(static_cast<CategoryId>(p.min));
      for (std::size_t w = 0; w < num_words; ++w) {
        out.words[w] &= bitmap ? bitmap->WordAt(w) : 0;
      }
      continue;
    }
    // Range over tags: OR every stored category bitmap whose id falls in
    // [min, max] into scratch, then AND. The slot table is fixed-capacity,
    // so the sweep is bounded.
    range_scratch.assign(num_words, 0);
    for (std::size_t slot = 0; slot < kCategorySlots; ++slot) {
      const std::uint64_t key =
          category_slots_[slot].key.load(std::memory_order_acquire);
      if (key == 0) continue;
      const std::uint64_t category = key - 1;
      if (category < p.min || category > p.max) continue;
      const ValidityBitmap* bitmap =
          category_slots_[slot].bitmap.load(std::memory_order_acquire);
      const std::size_t limit = std::min(num_words, bitmap->num_words());
      for (std::size_t w = 0; w < limit; ++w) {
        range_scratch[w] |= bitmap->WordAt(w);
      }
    }
    for (std::size_t w = 0; w < num_words; ++w) {
      out.words[w] &= range_scratch[w];
    }
  }
  if (validity != nullptr) {
    for (std::size_t w = 0; w < num_words; ++w) {
      out.words[w] &= validity->WordAt(w);
    }
  }

  // Numeric phase: column range tests over surviving bits only.
  FilterPredicate numeric[8];
  std::size_t num_numeric = 0;
  for (const FilterPredicate& p : expr.predicates()) {
    if (p.field == FilterField::kCategory) continue;
    if (num_numeric < 8) {
      numeric[num_numeric++] = p;
    }
  }
  // More than 8 numeric conjuncts over 3 fields never tightens further in
  // practice, but stay exact: spill to the slow per-bit Matches-equivalent.
  const bool spill = [&] {
    std::size_t total = 0;
    for (const FilterPredicate& p : expr.predicates()) {
      if (p.field != FilterField::kCategory) ++total;
    }
    return total > 8;
  }();

  std::size_t matches = 0;
  for (std::size_t w = 0; w < num_words; ++w) {
    std::uint64_t word = out.words[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      word &= word - 1;
      const LocalId local = static_cast<LocalId>(w * 64 + bit);
      bool ok = true;
      if (!spill) {
        for (std::size_t i = 0; i < num_numeric && ok; ++i) {
          const std::uint64_t value = NumericAt(numeric[i].field, local);
          ok = value >= numeric[i].min && value <= numeric[i].max;
        }
      } else {
        for (const FilterPredicate& p : expr.predicates()) {
          if (p.field == FilterField::kCategory) continue;
          const std::uint64_t value = NumericAt(p.field, local);
          if (value < p.min || value > p.max) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) {
        out.words[w] &= ~(std::uint64_t{1} << bit);
      } else {
        ++matches;
      }
    }
  }
  out.matches = matches;
  return out;
}

std::uint64_t AttributeFilterIndex::ColumnChecksum() const noexcept {
  const std::size_t n = size_.load(std::memory_order_acquire);
  std::uint64_t key = Fnv1a64("jdvs.filter_columns");
  for (std::size_t i = 0; i < n; ++i) {
    key = HashCombine(key,
                      Mix64(ColumnCell(sales_, i)->load(
                          std::memory_order_acquire)));
    key = HashCombine(key, Mix64(ColumnCell(price_cents_, i)
                                     ->load(std::memory_order_acquire)));
    key = HashCombine(key, Mix64(ColumnCell(praise_, i)->load(
                               std::memory_order_acquire)));
  }
  return key;
}

}  // namespace jdvs
