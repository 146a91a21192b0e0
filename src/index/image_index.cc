#include "index/image_index.h"

namespace jdvs {

const char* FilterStrategyName(FilterScanStats::Strategy strategy) noexcept {
  switch (strategy) {
    case FilterScanStats::Strategy::kNone:
      return "none";
    case FilterScanStats::Strategy::kPre:
      return "pre";
    case FilterScanStats::Strategy::kPost:
      return "post";
    case FilterScanStats::Strategy::kFallback:
      return "fallback";
  }
  return "unknown";
}

}  // namespace jdvs
