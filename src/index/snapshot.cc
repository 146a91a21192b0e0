#include "index/snapshot.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <vector>

#include "index/snapshot_io.h"
#include "tier/tiered_snapshot.h"

namespace jdvs {
namespace {

using namespace snapshot_io;

constexpr std::uint64_t kMagic = 0x4A44565349445831ULL;  // "JDVSIDX1"
// Version 2 adds the update high-water mark right after the version field;
// version-1 snapshots still load (hwm = 0, "replay everything").
// Version 3 adds the hybrid-filter strategy knobs to the config block and a
// trailing verification section (per-category populations + numeric-column
// checksum) that load cross-checks against the rebuilt attribute filter
// index; v1/v2 snapshots still load with default knobs and no verification.
// Version 4 is the tiered (mmap-able) layout defined in tier/tiered_snapshot;
// this writer still emits v3 and the loader dispatches v4 files there.
constexpr std::uint32_t kVersion = 3;

}  // namespace

void SaveIndexSnapshot(const IvfIndex& index, const std::string& path,
                       std::uint64_t update_hwm) {
  if (index.pq() != nullptr) {
    throw SnapshotError("flat snapshot writer given a PQ-coded index");
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw SnapshotError("cannot open for writing: " + path);

  WritePod(os, kMagic);
  WritePod(os, kVersion);
  WritePod<std::uint64_t>(os, update_hwm);

  // Index configuration.
  const IvfIndexConfig& config = index.config();
  WritePod<std::uint64_t>(os, config.nprobe);
  WritePod<std::uint64_t>(os, kRetiredListCapacitySlot);
  WritePod<std::uint8_t>(os, config.filter_invalid_during_scan ? 1 : 0);
  WritePod<double>(os, config.filter_post_threshold);
  WritePod<double>(os, config.filter_widen_threshold);
  WritePod<std::uint64_t>(os, config.filter_widen_factor);

  // Quantizer.
  const CoarseQuantizer& quantizer = index.quantizer();
  WritePod<std::uint64_t>(os, quantizer.dim());
  WritePod<std::uint64_t>(os, quantizer.num_clusters());
  for (std::size_t c = 0; c < quantizer.num_clusters(); ++c) {
    const FeatureView centroid = quantizer.Centroid(c);
    WriteRaw(os, centroid.data(), centroid.size() * sizeof(float));
  }

  // Entries.
  WritePod<std::uint64_t>(os, index.size());
  std::map<CategoryId, std::uint64_t> category_populations;
  index.ForEachEntry([&](LocalId, const AttributeSnapshot& snapshot,
                         const std::uint8_t* row, FeatureView, bool valid) {
    WriteString(os, snapshot.image_url);
    WritePod<std::uint64_t>(os, snapshot.product_id);
    WritePod<std::uint32_t>(os, snapshot.category);
    WritePod<std::uint64_t>(os, snapshot.attributes.sales);
    WritePod<std::uint64_t>(os, snapshot.attributes.price_cents);
    WritePod<std::uint64_t>(os, snapshot.attributes.praise);
    WriteString(os, snapshot.detail_url);
    WritePod<std::uint8_t>(os, valid ? 1 : 0);
    WriteRaw(os, row, index.dim() * sizeof(float));
    // Category bitmaps count every appended image, valid or not (validity
    // is a separate fold at materialization time).
    ++category_populations[snapshot.category];
  });

  // Verification section: the saved filter-index state the loader must be
  // able to reproduce by replaying the entries above through AddImage.
  WritePod<std::uint64_t>(os, category_populations.size());
  for (const auto& [category, population] : category_populations) {
    WritePod<std::uint32_t>(os, category);
    WritePod<std::uint64_t>(os, population);
  }
  WritePod<std::uint64_t>(os, index.attribute_filters().ColumnChecksum());
  os.flush();
  if (!os) throw SnapshotError("snapshot flush failed");
}

std::unique_ptr<IvfIndex> LoadIndexSnapshot(const std::string& path,
                                            std::uint64_t* update_hwm) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);

  if (ReadPod<std::uint64_t>(is) != kMagic) {
    throw SnapshotError("bad snapshot magic: " + path);
  }
  const auto version = ReadPod<std::uint32_t>(is);
  if (version == 4 || version == 5) {
    // Tiered layout (v5 = v4 + per-list payload checksums): a different body
    // entirely. The heap loader replays it through AddImage so callers of
    // the generic entry point keep getting a fully RAM-resident index; use
    // LoadTieredSnapshot for mapped serving.
    is.close();
    return internal::LoadTieredSnapshotHeap(path, update_hwm);
  }
  if (version < 1 || version > kVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version));
  }
  const std::uint64_t hwm = version >= 2 ? ReadPod<std::uint64_t>(is) : 0;
  if (update_hwm != nullptr) *update_hwm = hwm;

  IvfIndexConfig config;
  config.nprobe = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  ReadPod<std::uint64_t>(is);  // retired list-capacity slot
  config.filter_invalid_during_scan = ReadPod<std::uint8_t>(is) != 0;
  if (version >= 3) {
    config.filter_post_threshold = ReadPod<double>(is);
    config.filter_widen_threshold = ReadPod<double>(is);
    config.filter_widen_factor =
        static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  }

  const auto dim = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  const auto num_clusters = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  if (dim == 0 || dim > (1u << 20) || num_clusters == 0 ||
      num_clusters > (1u << 24)) {
    throw SnapshotError("implausible snapshot dimensions");
  }
  std::vector<float> centroids(num_clusters * dim);
  ReadRaw(is, centroids.data(), centroids.size() * sizeof(float));
  auto quantizer =
      std::make_shared<const CoarseQuantizer>(std::move(centroids), dim);

  auto index = std::make_unique<IvfIndex>(std::move(quantizer), config);
  const auto count = ReadPod<std::uint64_t>(is);
  std::vector<float> feature(dim);
  std::vector<std::pair<std::string, bool>> validity;
  validity.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string image_url = ReadString(is);
    const auto product_id = ReadPod<std::uint64_t>(is);
    const auto category = ReadPod<std::uint32_t>(is);
    ProductAttributes attributes;
    attributes.sales = ReadPod<std::uint64_t>(is);
    attributes.price_cents = ReadPod<std::uint64_t>(is);
    attributes.praise = ReadPod<std::uint64_t>(is);
    const std::string detail_url = ReadString(is);
    const bool valid = ReadPod<std::uint8_t>(is) != 0;
    ReadRaw(is, feature.data(), feature.size() * sizeof(float));
    index->AddImage(image_url, product_id, category, attributes, detail_url,
                    FeatureView(feature.data(), feature.size()));
    if (!valid) validity.emplace_back(image_url, false);
  }
  // AddImage marks entries valid; reapply the invalid bits afterwards.
  for (const auto& [url, valid] : validity) {
    index->SetImageValidity(url, valid);
  }
  if (version >= 3) {
    // The AddImage replay above rebuilt the attribute filter index; verify
    // it reproduces the saved state before the index takes hybrid traffic —
    // a mismatch means filtered queries would silently return wrong results.
    const AttributeFilterIndex& filters = index->attribute_filters();
    const auto num_categories = ReadPod<std::uint64_t>(is);
    if (num_categories > (1u << 24)) {
      throw SnapshotError("implausible category count in snapshot");
    }
    for (std::uint64_t i = 0; i < num_categories; ++i) {
      const auto category = ReadPod<std::uint32_t>(is);
      const auto population = ReadPod<std::uint64_t>(is);
      const ValidityBitmap* bitmap = filters.CategoryBitmap(category);
      const std::uint64_t rebuilt =
          bitmap == nullptr ? 0 : bitmap->CountValid();
      if (rebuilt != population) {
        throw SnapshotError("filter index verification failed: category " +
                            std::to_string(category) + " has " +
                            std::to_string(rebuilt) + " images, snapshot " +
                            "recorded " + std::to_string(population));
      }
    }
    const auto checksum = ReadPod<std::uint64_t>(is);
    if (filters.ColumnChecksum() != checksum) {
      throw SnapshotError(
          "filter index verification failed: numeric column checksum "
          "mismatch after rebuild");
    }
  }
  // Layout invariant before the restored index takes SIMD traffic: every
  // feature row the scan kernels will touch must sit on a cache-line
  // boundary. Cannot fail with the current allocator; a snapshot load is the
  // one place a foreign build/libc combination would surface it.
  if (!index->scan_storage_aligned()) {
    throw SnapshotError("restored feature storage is not 64-byte aligned");
  }
  return index;
}

}  // namespace jdvs
