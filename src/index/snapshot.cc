#include "index/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "vecmath/aligned.h"

#if defined(__linux__) || defined(__APPLE__)
#define JDVS_HAVE_FLOCK 1
#include <cerrno>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace jdvs {
namespace {

constexpr std::uint64_t kMagic = 0x4A44565349445831ULL;  // "JDVSIDX1"
constexpr std::uint32_t kVersion = 7;
constexpr std::uint64_t kSegmentAlign = kCacheLineBytes;
// magic + version + update_hwm + payload_base
constexpr std::uint64_t kPrefixBytes = 8 + 4 + 8 + 8;
// Longest string a loader accepts: a corrupt length prefix must not turn
// into a multi-gigabyte allocation.
constexpr std::uint32_t kMaxStringBytes = 1u << 24;

// ---- Byte I/O: every failure surfaces as a typed SnapshotError ----

void WriteRaw(std::ostream& os, const void* data, std::size_t bytes) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(bytes));
  if (!os) throw SnapshotError("snapshot write failed");
}

template <typename T>
void WritePod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteRaw(os, &value, sizeof(T));
}

void WriteString(std::ostream& os, std::string_view s) {
  WritePod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  WriteRaw(os, s.data(), s.size());
}

void ReadRaw(std::istream& is, void* data, std::size_t bytes) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (is.gcount() != static_cast<std::streamsize>(bytes)) {
    throw SnapshotError("snapshot truncated");
  }
}

template <typename T>
T ReadPod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  ReadRaw(is, &value, sizeof(T));
  return value;
}

std::size_t ReadSize(std::istream& is) {
  return static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
}

std::string ReadString(std::istream& is) {
  const auto size = ReadPod<std::uint32_t>(is);
  if (size > kMaxStringBytes) throw SnapshotError("snapshot string too large");
  std::string s(size, '\0');
  ReadRaw(is, s.data(), size);
  return s;
}

std::uint64_t AlignUp(std::uint64_t value) {
  return (value + kSegmentAlign - 1) & ~(kSegmentAlign - 1);
}

struct ListDirEntry {
  std::uint64_t entry_count = 0;
  std::uint64_t rel_offset = 0;  // from payload_base, kSegmentAlign-aligned
  std::uint64_t bytes = 0;
  std::uint32_t crc32c = 0;  // over the segment's exact payload bytes
};

struct EntryMeta {
  std::string image_url;
  ProductId product_id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string detail_url;
  bool valid = true;
};

// Everything a loader needs before it decides heap-vs-mapped for the
// payload: the full head section plus where the payload region starts.
struct ParsedHead {
  std::uint64_t update_hwm = 0;
  std::uint64_t payload_base = 0;
  IvfIndexConfig config;
  std::size_t dim = 0;
  std::vector<float> centroids;
  std::size_t row_bytes = 0;
  std::vector<EntryMeta> entries;
  std::vector<ListDirEntry> directory;
  std::vector<std::vector<LocalId>> list_ids;
  std::vector<std::vector<float>> list_norms;
  std::vector<std::pair<CategoryId, std::uint64_t>> category_populations;
  std::uint64_t column_checksum = 0;
};

// The file size the directory implies: payload_base when every list is
// empty, otherwise the end of the furthest segment. The writer emits
// nothing after the last segment, so any other size means the file was
// rewritten or truncated under us.
std::uint64_t ExpectedFileSize(const ParsedHead& head) {
  std::uint64_t end = head.payload_base;
  for (const ListDirEntry& dir : head.directory) {
    if (dir.bytes == 0) continue;
    end = std::max(end, head.payload_base + dir.rel_offset + dir.bytes);
  }
  return end;
}

ParsedHead ParseHead(std::istream& is, const std::string& path) {
  if (ReadPod<std::uint64_t>(is) != kMagic) {
    throw SnapshotError("bad snapshot magic: " + path);
  }
  const auto version = ReadPod<std::uint32_t>(is);
  if (version != kVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kVersion) + "): " + path);
  }
  ParsedHead head;
  head.update_hwm = ReadPod<std::uint64_t>(is);
  head.payload_base = ReadPod<std::uint64_t>(is);
  if (head.payload_base % kSegmentAlign != 0) {
    throw SnapshotError("snapshot payload base not 64-byte aligned");
  }

  IvfIndexConfig& config = head.config;
  config.nprobe = ReadSize(is);
  config.filter_invalid_during_scan = ReadPod<std::uint8_t>(is) != 0;
  config.filter_post_threshold = ReadPod<double>(is);
  config.filter_widen_threshold = ReadPod<double>(is);
  config.filter_widen_factor = ReadSize(is);

  head.dim = ReadSize(is);
  const std::size_t num_clusters = ReadSize(is);
  if (head.dim == 0 || head.dim > (1u << 20) || num_clusters == 0 ||
      num_clusters > (1u << 24)) {
    throw SnapshotError("implausible snapshot dimensions");
  }
  head.centroids.resize(num_clusters * head.dim);
  ReadRaw(is, head.centroids.data(), head.centroids.size() * sizeof(float));

  head.row_bytes = ReadSize(is);
  if (head.row_bytes == 0 || head.row_bytes > (1u << 22)) {
    throw SnapshotError("implausible snapshot row stride");
  }

  // No reserve from the untrusted count: a corrupt one must end in
  // "truncated", not in an allocation failure.
  const auto count = ReadPod<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < count; ++i) {
    EntryMeta entry;
    entry.image_url = ReadString(is);
    entry.product_id = ReadPod<std::uint64_t>(is);
    entry.category = ReadPod<std::uint32_t>(is);
    entry.attributes.sales = ReadPod<std::uint64_t>(is);
    entry.attributes.price_cents = ReadPod<std::uint64_t>(is);
    entry.attributes.praise = ReadPod<std::uint64_t>(is);
    entry.detail_url = ReadString(is);
    entry.valid = ReadPod<std::uint8_t>(is) != 0;
    head.entries.push_back(std::move(entry));
  }

  const std::size_t num_lists = ReadSize(is);
  if (num_lists != num_clusters) {
    throw SnapshotError("snapshot directory list count does not match "
                        "quantizer");
  }
  head.directory.resize(num_lists);
  std::uint64_t total_entries = 0;
  for (ListDirEntry& dir : head.directory) {
    dir.entry_count = ReadPod<std::uint64_t>(is);
    dir.rel_offset = ReadPod<std::uint64_t>(is);
    dir.bytes = ReadPod<std::uint64_t>(is);
    dir.crc32c = ReadPod<std::uint32_t>(is);
    if (dir.rel_offset % kSegmentAlign != 0) {
      throw SnapshotError("snapshot directory segment not 64-byte aligned");
    }
    if (dir.entry_count > count ||
        dir.bytes != dir.entry_count * head.row_bytes) {
      throw SnapshotError("snapshot directory segment size mismatch");
    }
    total_entries += dir.entry_count;
  }
  if (total_entries != count) {
    throw SnapshotError("snapshot directory entry counts do not sum to the "
                        "entry-section count");
  }

  // Every entry sits in exactly one list: with the counts summing to the
  // entry count, ids in range and none repeated is a permutation. A
  // repeated id would serve one image twice and another never.
  head.list_ids.resize(num_lists);
  head.list_norms.resize(num_lists);
  std::vector<bool> listed(head.entries.size());
  for (std::size_t list = 0; list < num_lists; ++list) {
    const auto n = static_cast<std::size_t>(head.directory[list].entry_count);
    head.list_ids[list].resize(n);
    head.list_norms[list].resize(n);
    if (n == 0) continue;
    ReadRaw(is, head.list_ids[list].data(), n * sizeof(LocalId));
    ReadRaw(is, head.list_norms[list].data(), n * sizeof(float));
    for (const LocalId id : head.list_ids[list]) {
      if (id >= count) {
        throw SnapshotError("snapshot list references a local id past the "
                            "entry section");
      }
      if (listed[id]) {
        throw SnapshotError("snapshot lists reference local id " +
                            std::to_string(id) + " twice");
      }
      listed[id] = true;
    }
  }

  const auto num_categories = ReadPod<std::uint64_t>(is);
  if (num_categories > (1u << 24)) {
    throw SnapshotError("implausible category count in snapshot");
  }
  head.category_populations.reserve(
      static_cast<std::size_t>(num_categories));
  for (std::uint64_t i = 0; i < num_categories; ++i) {
    const auto category = ReadPod<std::uint32_t>(is);
    const auto population = ReadPod<std::uint64_t>(is);
    head.category_populations.emplace_back(category, population);
  }
  head.column_checksum = ReadPod<std::uint64_t>(is);
  return head;
}

// Reads list `list`'s payload segment into `segment`; returns its CRC32C.
std::uint32_t ReadSegment(std::istream& is, const ParsedHead& head,
                          std::size_t list, std::vector<std::uint8_t>& segment) {
  const ListDirEntry& dir = head.directory[list];
  is.seekg(static_cast<std::streamoff>(head.payload_base + dir.rel_offset));
  segment.resize(static_cast<std::size_t>(dir.bytes));
  ReadRaw(is, segment.data(), segment.size());
  return Crc32c(segment.data(), segment.size());
}

ParsedHead ParseHeadOf(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);
  return ParseHead(is, path);
}

// The metadata restore both loaders share: the index shell — config,
// quantizer, every entry's metadata and validity — with empty inverted lists
// for the loader to fill from the payload.
std::unique_ptr<IvfIndex> RestoreMetadata(ParsedHead& head) {
  auto quantizer = std::make_shared<const CoarseQuantizer>(
      std::move(head.centroids), head.dim);
  auto index = std::make_unique<IvfIndex>(std::move(quantizer), head.config);
  if (index->row_bytes() != head.row_bytes) {
    throw SnapshotError(
        "snapshot row stride mismatch: snapshot rows are " +
        std::to_string(head.row_bytes) + " bytes, this build stores " +
        std::to_string(index->row_bytes()));
  }
  for (const EntryMeta& entry : head.entries) {
    index->AddImageMetadata(entry.image_url, entry.product_id, entry.category,
                            entry.attributes, entry.detail_url);
  }
  for (const EntryMeta& entry : head.entries) {
    if (!entry.valid) index->SetImageValidity(entry.image_url, false);
  }
  return index;
}

// The checks both loaders run once the lists are in place, before the
// restored index takes traffic: the rebuilt attribute filter index must
// reproduce the saved state (a mismatch means filtered queries would
// silently return wrong results), and every row the SIMD kernels will touch
// must sit on a cache-line boundary (cannot fail with the current
// allocator; a load is where a foreign build/libc combination would
// surface it).
void VerifyRestored(const IvfIndex& index, const ParsedHead& head) {
  const AttributeFilterIndex& filters = index.attribute_filters();
  for (const auto& [category, population] : head.category_populations) {
    const ValidityBitmap* bitmap = filters.CategoryBitmap(category);
    const std::uint64_t rebuilt = bitmap == nullptr ? 0 : bitmap->CountValid();
    if (rebuilt != population) {
      throw SnapshotError("filter index verification failed: category " +
                          std::to_string(category) + " has " +
                          std::to_string(rebuilt) + " images, snapshot " +
                          "recorded " + std::to_string(population));
    }
  }
  if (filters.ColumnChecksum() != head.column_checksum) {
    throw SnapshotError(
        "filter index verification failed: numeric column checksum "
        "mismatch after rebuild");
  }
  if (!index.scan_storage_aligned()) {
    throw SnapshotError("restored scan storage is not 64-byte aligned");
  }
}

// Holds LOCK_EX on an existing snapshot file across a rewrite. A mapped
// loader holds LOCK_SH for the lifetime of its mapping, so a deploy trying
// to rewrite a file that a live index is scanning fails here, loudly,
// before the first truncating byte.
class ExclusiveWriteLock {
 public:
  explicit ExclusiveWriteLock(const std::string& path) {
#if JDVS_HAVE_FLOCK
    do {
      fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    } while (fd_ < 0 && errno == EINTR);
    if (fd_ < 0) return;  // no existing file: nothing can be mapping it
    int rc;
    do {
      rc = ::flock(fd_, LOCK_EX | LOCK_NB);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd_);
      fd_ = -1;
      throw SnapshotError(
          "snapshot file is mapped by a live index (shared flock held), "
          "refusing to rewrite: " + path);
    }
#else
    (void)path;
#endif
  }
  ~ExclusiveWriteLock() {
#if JDVS_HAVE_FLOCK
    if (fd_ >= 0) ::close(fd_);
#endif
  }
  ExclusiveWriteLock(const ExclusiveWriteLock&) = delete;
  ExclusiveWriteLock& operator=(const ExclusiveWriteLock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace

void SaveIndexSnapshot(const IvfIndex& index, const std::string& path,
                       std::uint64_t update_hwm) {
  const std::size_t num_lists = index.num_lists();
  const std::uint64_t row_bytes = index.row_bytes();

  // Per-list directory first: counts and checksums from the stored runs,
  // relative offsets by running sum. The CRC32C covers each segment's exact
  // payload bytes; alignment padding between segments is never scanned.
  std::vector<ListDirEntry> directory(num_lists);
  std::uint64_t running = 0;
  for (std::size_t list = 0; list < num_lists; ++list) {
    ListDirEntry& dir = directory[list];
    index.ForEachScanRun(
        list, [&](const LocalId* /*ids*/, const std::uint8_t* payload,
                  const float* /*norms*/, std::size_t count) {
          dir.entry_count += count;
          dir.crc32c = Crc32c(payload, count * row_bytes, dir.crc32c);
        });
    dir.rel_offset = running;
    dir.bytes = dir.entry_count * row_bytes;
    running += AlignUp(dir.bytes);
  }

  // Head section in memory: its size determines payload_base.
  std::ostringstream head(std::ios::binary);
  const IvfIndexConfig& config = index.config();
  WritePod<std::uint64_t>(head, config.nprobe);
  WritePod<std::uint8_t>(head, config.filter_invalid_during_scan ? 1 : 0);
  WritePod<double>(head, config.filter_post_threshold);
  WritePod<double>(head, config.filter_widen_threshold);
  WritePod<std::uint64_t>(head, config.filter_widen_factor);

  const CoarseQuantizer& quantizer = index.quantizer();
  WritePod<std::uint64_t>(head, quantizer.dim());
  WritePod<std::uint64_t>(head, quantizer.num_clusters());
  for (std::size_t c = 0; c < quantizer.num_clusters(); ++c) {
    const FeatureView centroid = quantizer.Centroid(c);
    WriteRaw(head, centroid.data(), centroid.size() * sizeof(float));
  }

  WritePod<std::uint64_t>(head, row_bytes);

  WritePod<std::uint64_t>(head, index.size());
  std::map<CategoryId, std::uint64_t> category_populations;
  index.ForEachEntry([&](LocalId, const AttributeSnapshot& snapshot,
                         bool valid) {
    WriteString(head, snapshot.image_url);
    WritePod<std::uint64_t>(head, snapshot.product_id);
    WritePod<std::uint32_t>(head, snapshot.category);
    WritePod<std::uint64_t>(head, snapshot.attributes.sales);
    WritePod<std::uint64_t>(head, snapshot.attributes.price_cents);
    WritePod<std::uint64_t>(head, snapshot.attributes.praise);
    WriteString(head, snapshot.detail_url);
    WritePod<std::uint8_t>(head, valid ? 1 : 0);
    // Category bitmaps count every appended image, valid or not (validity
    // is a separate fold at materialization time).
    ++category_populations[snapshot.category];
  });

  WritePod<std::uint64_t>(head, static_cast<std::uint64_t>(num_lists));
  for (const ListDirEntry& dir : directory) {
    WritePod<std::uint64_t>(head, dir.entry_count);
    WritePod<std::uint64_t>(head, dir.rel_offset);
    WritePod<std::uint64_t>(head, dir.bytes);
    WritePod<std::uint32_t>(head, dir.crc32c);
  }
  for (std::size_t list = 0; list < num_lists; ++list) {
    index.ForEachScanRun(
        list, [&](const LocalId* ids, const std::uint8_t* /*payload*/,
                  const float* /*norms*/, std::size_t count) {
          WriteRaw(head, ids, count * sizeof(LocalId));
        });
    index.ForEachScanRun(
        list, [&](const LocalId* /*ids*/, const std::uint8_t* /*payload*/,
                  const float* norms, std::size_t count) {
          WriteRaw(head, norms, count * sizeof(float));
        });
  }

  WritePod<std::uint64_t>(head, category_populations.size());
  for (const auto& [category, population] : category_populations) {
    WritePod<std::uint32_t>(head, category);
    WritePod<std::uint64_t>(head, population);
  }
  WritePod<std::uint64_t>(head, index.attribute_filters().ColumnChecksum());

  const std::string head_bytes = head.str();
  const std::uint64_t payload_base = AlignUp(kPrefixBytes + head_bytes.size());

  // Refuses (throws) when a live mapping holds the shared lock; held until
  // the rewrite below completes.
  const ExclusiveWriteLock write_lock(path);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw SnapshotError("cannot open for writing: " + path);
  WritePod(os, kMagic);
  WritePod(os, kVersion);
  WritePod<std::uint64_t>(os, update_hwm);
  WritePod<std::uint64_t>(os, payload_base);
  WriteRaw(os, head_bytes.data(), head_bytes.size());

  // Zero padding up to payload_base, then the aligned payload segments with
  // zero padding between them (rel offsets are AlignUp'd).
  const std::string zeros(kSegmentAlign, '\0');
  std::uint64_t pos = kPrefixBytes + head_bytes.size();
  auto pad_to = [&](std::uint64_t target) {
    while (pos < target) {
      const std::uint64_t n =
          std::min<std::uint64_t>(zeros.size(), target - pos);
      WriteRaw(os, zeros.data(), n);
      pos += n;
    }
  };
  pad_to(payload_base);
  for (std::size_t list = 0; list < num_lists; ++list) {
    pad_to(payload_base + directory[list].rel_offset);
    index.ForEachScanRun(
        list, [&](const LocalId* /*ids*/, const std::uint8_t* payload,
                  const float* /*norms*/, std::size_t count) {
          WriteRaw(os, payload, count * row_bytes);
          pos += count * row_bytes;
        });
  }
  os.flush();
  if (!os) throw SnapshotError("snapshot flush failed");
}

std::unique_ptr<IvfIndex> LoadIndexSnapshot(const std::string& path,
                                            std::uint64_t* update_hwm) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);
  ParsedHead head = ParseHead(is, path);
  auto index = RestoreMetadata(head);

  // Each list is verified whole, then appended in stored order, so it is
  // rebuilt exactly as it was written.
  std::vector<std::uint8_t> segment;
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    const ListDirEntry& dir = head.directory[list];
    if (dir.entry_count == 0) continue;
    if (ReadSegment(is, head, list, segment) != dir.crc32c) {
      throw SnapshotError("payload checksum mismatch on list " +
                          std::to_string(list) + " (bitrot?): " + path);
    }
    index->RestoreList(list, head.list_ids[list].data(),
                       head.list_norms[list].data(), segment.data(),
                       static_cast<std::size_t>(dir.entry_count));
  }
  VerifyRestored(*index, head);
  if (update_hwm != nullptr) *update_hwm = head.update_hwm;
  return index;
}

std::unique_ptr<IvfIndex> LoadTieredSnapshot(const std::string& path,
                                             const TieredStoreConfig& tier_config,
                                             std::uint64_t* update_hwm) {
  ParsedHead head = ParseHeadOf(path);

  // The shared flock outlives the mapping (it rides the retained fd inside
  // MmapFile), so SaveIndexSnapshot's exclusive lock fails while any index
  // is still serving from this file.
  MmapFile file = [&] {
    try {
      return MmapFile::Open(path, /*lock_shared=*/true);
    } catch (const MmapError& e) {
      throw SnapshotError(std::string("cannot map snapshot: ") + e.what());
    }
  }();
  const std::uint64_t expected_size = ExpectedFileSize(head);
  if (file.size() != expected_size) {
    throw SnapshotError(
        "snapshot size disagrees with its directory (file " +
        std::to_string(file.size()) + " bytes, directory implies " +
        std::to_string(expected_size) +
        " — truncated or rewritten under us?): " + path);
  }

  auto index = RestoreMetadata(head);
  std::vector<TieredListStore::ListExtent> extents;
  std::vector<std::uint32_t> checksums;
  extents.reserve(head.directory.size());
  checksums.reserve(head.directory.size());
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    const ListDirEntry& dir = head.directory[list];
    extents.push_back({head.payload_base + dir.rel_offset, dir.bytes});
    checksums.push_back(dir.crc32c);
    index->AttachFrozenList(
        list, head.list_ids[list].data(), head.list_norms[list].data(),
        file.data() + head.payload_base + dir.rel_offset,
        static_cast<std::size_t>(dir.entry_count));
  }
  VerifyRestored(*index, head);
  // The store owns the mapping; the frozen payload pointers installed above
  // stay valid because MmapFile moves transfer the mapping, never remap it.
  index->AttachTieredStore(std::make_shared<TieredListStore>(
      std::move(file), std::move(extents), std::move(checksums),
      tier_config));
  if (update_hwm != nullptr) *update_hwm = head.update_hwm;
  return index;
}

TieredDirectoryInfo ReadTieredDirectory(const std::string& path) {
  const ParsedHead head = ParseHeadOf(path);
  TieredDirectoryInfo info;
  info.version = kVersion;
  info.payload_base = head.payload_base;
  info.segments.reserve(head.directory.size());
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    const ListDirEntry& dir = head.directory[list];
    info.segments.push_back({.list = static_cast<std::uint32_t>(list),
                             .offset = head.payload_base + dir.rel_offset,
                             .bytes = dir.bytes,
                             .entry_count = dir.entry_count,
                             .crc32c = dir.crc32c});
  }
  return info;
}

TieredVerifyResult VerifyTieredSnapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);
  const ParsedHead head = ParseHead(is, path);
  TieredVerifyResult result;
  std::vector<std::uint8_t> segment;
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    if (head.directory[list].bytes == 0) continue;
    ++result.checked;
    if (ReadSegment(is, head, list, segment) != head.directory[list].crc32c) {
      result.corrupt_lists.push_back(static_cast<std::uint32_t>(list));
    }
  }
  return result;
}

}  // namespace jdvs
