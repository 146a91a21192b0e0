#include "search/types.h"

namespace jdvs {

std::vector<SearchHit> MergeHits(std::vector<std::vector<SearchHit>> partials,
                                 std::size_t k) {
  std::vector<HitList> lists(partials.size());
  for (std::size_t i = 0; i < partials.size(); ++i) {
    for (const SearchHit& hit : partials[i]) lists[i].Append(hit);
  }
  return MergeHitLists(lists, k).Unpack();
}

}  // namespace jdvs
