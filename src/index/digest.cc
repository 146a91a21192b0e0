#include "index/digest.h"

#include "common/hash.h"

namespace jdvs {

IndexDigest ComputeIndexDigest(const IvfIndex& index) {
  IndexDigest digest;
  index.ForEachEntry([&](LocalId, const AttributeSnapshot& snapshot,
                         bool valid) {
    std::uint64_t h = Fnv1a64(snapshot.image_url);
    h = HashCombine(h, Mix64(snapshot.product_id));
    h = HashCombine(h, Mix64(snapshot.category));
    h = HashCombine(h, Mix64(snapshot.attributes.sales));
    h = HashCombine(h, Mix64(snapshot.attributes.price_cents));
    h = HashCombine(h, Mix64(snapshot.attributes.praise));
    h = HashCombine(h, Fnv1a64(snapshot.detail_url));
    h = HashCombine(h, Mix64(valid ? 0x5A5AULL : 0xA5A5ULL));
    // XOR makes the fold independent of insertion order, so replicas that
    // interleaved partitions differently still match.
    digest.content_hash ^= Mix64(h);
    ++digest.entries;
    if (valid) ++digest.valid_entries;
  });
  return digest;
}

}  // namespace jdvs
