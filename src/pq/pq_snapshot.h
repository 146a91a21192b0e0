// Snapshot persistence for a PQ-coded IvfIndex.
//
// The compressed analogue of index/snapshot.h: serializes the coarse
// quantizer, the PQ codebooks, and every entry's attributes, PQ code,
// inverted-list assignment, validity bit and (when the index re-ranks) raw
// feature. Restored indexes reproduce the original structure and search
// results exactly.
#pragma once

#include <memory>
#include <string>

#include "index/ivf_index.h"
#include "index/snapshot.h"  // SnapshotError

namespace jdvs {

// Writes the PQ-coded `index` to `path`. Throws SnapshotError on I/O
// failure or a flat-coded index. Must not race the index's writer.
void SaveIvfPqSnapshot(const IvfIndex& index, const std::string& path);

// Reads a snapshot back into a fresh PQ-coded index. Throws SnapshotError on
// I/O failure, bad magic, version mismatch, or truncation.
std::unique_ptr<IvfIndex> LoadIvfPqSnapshot(const std::string& path);

}  // namespace jdvs
