// Index content digests for replica verification.
//
// "Each partition can have multiple copies for availability" (Section 2.4);
// replicas consume the same update stream independently, so operations need
// a cheap way to confirm they converged to the same logical content. The
// digest folds every entry's identity, attributes and validity into a single
// order-insensitive 64-bit value: equal digests (plus equal counts) mean the
// replicas agree, regardless of internal layout differences such as
// heap-resident vs mapped (tiered) posting lists.
#pragma once

#include <cstdint>

#include "index/ivf_index.h"

namespace jdvs {

struct IndexDigest {
  std::uint64_t content_hash = 0;  // XOR-fold of per-entry hashes
  std::uint64_t entries = 0;
  std::uint64_t valid_entries = 0;

  friend bool operator==(const IndexDigest&, const IndexDigest&) = default;
};

// Digest over (image url, product, category, attributes, detail url, valid)
// for every entry. Features are excluded: they are a deterministic function
// of the image content, so entry identity pins them.
IndexDigest ComputeIndexDigest(const IvfIndex& index);

}  // namespace jdvs
