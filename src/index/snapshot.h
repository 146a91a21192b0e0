// Index snapshot persistence: the one on-disk form of a partition index.
//
// The production pipeline builds the full index weekly (Section 2.2) and
// ships it to searcher nodes; that requires a durable on-disk form. A
// snapshot captures one partition's complete IvfIndex — configuration,
// coarse quantizer, every entry's attributes and validity, and every
// inverted list exactly as stored — and reloads into an index whose search
// results are bit-for-bit identical. One writer; two loaders share one head
// parser and one metadata restore and differ only in where the list payload
// lives: LoadIndexSnapshot copies it to heap, LoadTieredSnapshot maps the
// file and serves the payload in place through a TieredListStore (head in
// RAM, postings on disk).
//
// The format is an internal interchange format between builder and
// searchers of the same build, not a long-term stable archive: both loaders
// accept exactly the version the writer emits and refuse any other.
//
// Layout (version 7, little-endian; strings are a u32 length plus bytes):
//   u64 magic "JDVSIDX1" | u32 version | u64 update_hwm | u64 payload_base
//   head (kept in RAM by both loaders):
//     config: u64 nprobe | u8 filter_invalid_during_scan |
//       f64 filter_post_threshold | f64 filter_widen_threshold |
//       u64 filter_widen_factor
//     quantizer: u64 dim | u64 num_clusters | centroid floats
//     u64 row_bytes: the ScanBlock row stride (the padded float row)
//     entries: u64 count, then per entry in LocalId order: image url |
//       u64 product | u32 category | u64 sales | u64 price_cents |
//       u64 praise | detail url | u8 valid
//     directory: u64 num_lists, then per list u64 entry_count |
//       u64 rel_offset (from payload_base, 64-byte aligned) | u64 bytes |
//       u32 crc32c over the segment's exact payload bytes
//     per list: LocalId ids[entry_count] | float norms[entry_count]
//     verification: u64 categories, per category u32 id | u64 population;
//       then u64 numeric column checksum — the attribute filter state the
//       restored index must reproduce before it takes filtered traffic
//   zero padding to payload_base
//   payload: list i's entry_count rows at payload_base + rel_offset[i]
//
// The update high-water mark is the last applied
// ProductUpdateMessage::sequence, so a node restoring from the snapshot
// knows exactly which suffix of the message-log backlog to replay to catch
// up (the control plane's recovery protocol).
//
// Integrity: the heap loader verifies each segment's CRC32C while copying
// and refuses a mismatch (a heap restore has no quarantine to degrade
// into). The mapped loader hands the checksums to the TieredListStore, which
// verifies a segment on its first fault-in per residency. The mapped loader
// also holds a shared flock on the file for the lifetime of the mapping and
// refuses a file whose size disagrees with the directory; the writer takes
// an exclusive flock first, so a deploy rewriting a file under a live
// mapping fails loudly instead of scrambling a scan later.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "index/ivf_index.h"
#include "tier/tiered_store.h"

namespace jdvs {

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

// Writes `index` to `path`, stamping `update_hwm` (the highest applied
// update sequence; 0 = none) into the header. Throws SnapshotError on I/O
// failure or when a live mapping holds the file's shared flock. Must not
// race the index's writer (searchers snapshot between update batches).
void SaveIndexSnapshot(const IvfIndex& index, const std::string& path,
                       std::uint64_t update_hwm = 0);

// Heap load: the whole index copied to RAM, no mapping, no tier store.
// Fills `update_hwm` (when non-null) with the header's high-water mark.
// Throws SnapshotError on I/O failure, bad magic, another version,
// truncation, a corrupt head or a payload checksum mismatch.
std::unique_ptr<IvfIndex> LoadIndexSnapshot(const std::string& path,
                                            std::uint64_t* update_hwm = nullptr);

// Mapped load: head in RAM, payload left in the file and served through an
// attached TieredListStore built with `tier_config`. Throws SnapshotError
// like LoadIndexSnapshot, and also on a file size that disagrees with the
// directory or a writer's flock. The returned index's real-time delta path
// stays fully mutable: AddImage appends heap chunks behind each frozen
// prefix.
std::unique_ptr<IvfIndex> LoadTieredSnapshot(
    const std::string& path, const TieredStoreConfig& tier_config,
    std::uint64_t* update_hwm = nullptr);

// One payload segment as recorded in the directory (offsets absolute).
struct TieredSegmentInfo {
  std::uint32_t list = 0;
  std::uint64_t offset = 0;  // absolute file offset
  std::uint64_t bytes = 0;
  std::uint64_t entry_count = 0;
  std::uint32_t crc32c = 0;
};

// Directory summary of a snapshot file (chaos tools, inspection).
struct TieredDirectoryInfo {
  std::uint32_t version = 0;
  std::uint64_t payload_base = 0;
  std::vector<TieredSegmentInfo> segments;
};

// Parses just the head of a snapshot. Throws SnapshotError on a malformed
// file.
TieredDirectoryInfo ReadTieredDirectory(const std::string& path);

// Offline integrity walk: recompute every segment's CRC32C against the
// directory (jdvs_snapshot_inspect --verify). `checked` counts the
// non-empty segments walked.
struct TieredVerifyResult {
  std::size_t checked = 0;
  std::vector<std::uint32_t> corrupt_lists;
};
TieredVerifyResult VerifyTieredSnapshot(const std::string& path);

}  // namespace jdvs
