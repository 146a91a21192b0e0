#include "pq/pq_snapshot.h"

#include <cstdint>
#include <fstream>
#include <vector>

#include "index/snapshot_io.h"

namespace jdvs {
namespace {

using namespace snapshot_io;

constexpr std::uint64_t kMagic = 0x4A44565350513031ULL;  // "JDVSPQ01"
constexpr std::uint32_t kVersion = 1;

}  // namespace

void SaveIvfPqSnapshot(const IvfIndex& index, const std::string& path) {
  if (index.pq() == nullptr) {
    throw SnapshotError("PQ snapshot writer given a flat-coded index");
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw SnapshotError("cannot open for writing: " + path);

  WritePod(os, kMagic);
  WritePod(os, kVersion);

  // Index configuration; the raw-store flag is implied by re-ranking.
  const IvfIndexConfig& config = index.config();
  WritePod<std::uint64_t>(os, config.nprobe);
  WritePod<std::uint64_t>(os, kRetiredListCapacitySlot);
  WritePod<std::uint64_t>(os, config.rerank_candidates);
  WritePod<std::uint8_t>(os, config.rerank_candidates > 0 ? 1 : 0);

  // Coarse quantizer.
  const CoarseQuantizer& quantizer = index.quantizer();
  WritePod<std::uint64_t>(os, quantizer.dim());
  WritePod<std::uint64_t>(os, quantizer.num_clusters());
  for (std::size_t c = 0; c < quantizer.num_clusters(); ++c) {
    const FeatureView centroid = quantizer.Centroid(c);
    WriteRaw(os, centroid.data(), centroid.size() * sizeof(float));
  }

  // Product quantizer.
  const ProductQuantizer& pq = *index.pq();
  WritePod<std::uint64_t>(os, pq.num_subspaces());
  WritePod<std::uint64_t>(os, pq.codebook_size());
  WriteRaw(os, pq.codebooks().data(), pq.codebooks().size() * sizeof(float));

  // Each entry's inverted-list assignment, read back off the lists.
  std::vector<std::uint32_t> list_of(index.size());
  for (std::size_t list = 0; list < index.num_lists(); ++list) {
    index.ForEachScanRun(
        list, [&](const LocalId* ids, const std::uint8_t* /*codes*/,
                  const float* /*norms*/, std::size_t count) {
          for (std::size_t i = 0; i < count; ++i) {
            list_of[ids[i]] = static_cast<std::uint32_t>(list);
          }
        });
  }

  // Entries.
  WritePod<std::uint64_t>(os, index.size());
  const std::size_t code_bytes = pq.code_bytes();
  index.ForEachEntry([&](LocalId local, const AttributeSnapshot& snapshot,
                         const std::uint8_t* code, FeatureView raw,
                         bool valid) {
    WriteString(os, snapshot.image_url);
    WritePod<std::uint64_t>(os, snapshot.product_id);
    WritePod<std::uint32_t>(os, snapshot.category);
    WritePod<std::uint64_t>(os, snapshot.attributes.sales);
    WritePod<std::uint64_t>(os, snapshot.attributes.price_cents);
    WritePod<std::uint64_t>(os, snapshot.attributes.praise);
    WriteString(os, snapshot.detail_url);
    WritePod<std::uint32_t>(os, list_of[local]);
    WritePod<std::uint8_t>(os, valid ? 1 : 0);
    WriteRaw(os, code, code_bytes);
    WritePod<std::uint8_t>(os, raw.empty() ? 0 : 1);
    if (!raw.empty()) {
      WriteRaw(os, raw.data(), raw.size() * sizeof(float));
    }
  });
  os.flush();
  if (!os) throw SnapshotError("pq snapshot flush failed");
}

std::unique_ptr<IvfIndex> LoadIvfPqSnapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);

  if (ReadPod<std::uint64_t>(is) != kMagic) {
    throw SnapshotError("bad pq snapshot magic: " + path);
  }
  const auto version = ReadPod<std::uint32_t>(is);
  if (version != kVersion) {
    throw SnapshotError("unsupported pq snapshot version " +
                        std::to_string(version));
  }

  IvfIndexConfig config;
  config.nprobe = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  ReadPod<std::uint64_t>(is);  // retired list-capacity slot
  config.rerank_candidates =
      static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  ReadPod<std::uint8_t>(is);  // raw-store flag, implied by rerank_candidates

  const auto dim = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  const auto num_clusters = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  if (dim == 0 || dim > (1u << 20) || num_clusters == 0 ||
      num_clusters > (1u << 24)) {
    throw SnapshotError("implausible pq snapshot dimensions");
  }
  std::vector<float> centroids(num_clusters * dim);
  ReadRaw(is, centroids.data(), centroids.size() * sizeof(float));
  auto quantizer =
      std::make_shared<const CoarseQuantizer>(std::move(centroids), dim);

  const auto num_subspaces =
      static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  const auto codebook_size =
      static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  if (num_subspaces == 0 || num_subspaces > dim || dim % num_subspaces != 0 ||
      codebook_size == 0 || codebook_size > 256) {
    throw SnapshotError("implausible pq codebook shape");
  }
  std::vector<float> codebooks(num_subspaces * codebook_size *
                               (dim / num_subspaces));
  ReadRaw(is, codebooks.data(), codebooks.size() * sizeof(float));
  auto pq = std::make_shared<const ProductQuantizer>(
      dim, num_subspaces, codebook_size, std::move(codebooks));

  auto index = std::make_unique<IvfIndex>(std::move(quantizer), pq, config);
  const auto count = ReadPod<std::uint64_t>(is);
  const std::size_t num_lists = index->num_lists();
  PqCode code(pq->code_bytes());
  std::vector<float> raw(dim);
  std::vector<std::string> invalid_urls;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string image_url = ReadString(is);
    const auto product_id = ReadPod<std::uint64_t>(is);
    const auto category = ReadPod<std::uint32_t>(is);
    ProductAttributes attributes;
    attributes.sales = ReadPod<std::uint64_t>(is);
    attributes.price_cents = ReadPod<std::uint64_t>(is);
    attributes.praise = ReadPod<std::uint64_t>(is);
    const std::string detail_url = ReadString(is);
    const auto list = ReadPod<std::uint32_t>(is);
    if (list >= num_lists) {
      throw SnapshotError("pq snapshot entry names list " +
                          std::to_string(list) + " of " +
                          std::to_string(num_lists));
    }
    const bool valid = ReadPod<std::uint8_t>(is) != 0;
    ReadRaw(is, code.data(), code.size());
    const bool has_raw = ReadPod<std::uint8_t>(is) != 0;
    FeatureView raw_view;
    if (has_raw) {
      ReadRaw(is, raw.data(), raw.size() * sizeof(float));
      raw_view = FeatureView(raw.data(), raw.size());
    }
    index->AddEncoded(image_url, product_id, category, attributes, detail_url,
                      code, list, raw_view);
    if (!valid) invalid_urls.push_back(image_url);
  }
  for (const auto& url : invalid_urls) index->SetImageValidity(url, false);
  // Same layout invariant as the flat-index snapshot load: ADC gathers
  // assume cache-line-aligned code runs.
  if (!index->scan_storage_aligned()) {
    throw SnapshotError("restored code storage is not 64-byte aligned");
  }
  return index;
}

}  // namespace jdvs
