#include "metrics/latency_recorder.h"

#include <cstdio>

namespace jdvs {

std::string FormatMicros(std::int64_t micros) {
  char buffer[64];
  if (micros < 1000) {
    std::snprintf(buffer, sizeof(buffer), "%lldus",
                  static_cast<long long>(micros));
  } else if (micros < 1'000'000) {
    std::snprintf(buffer, sizeof(buffer), "%.1fms",
                  static_cast<double>(micros) / 1000.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2fs",
                  static_cast<double>(micros) / 1e6);
  }
  return buffer;
}

std::string SummarizeLatency(const Histogram& histogram,
                             const std::string& label) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s: n=%llu mean=%s p50=%s p90=%s p99=%s max=%s",
                label.c_str(),
                static_cast<unsigned long long>(histogram.Count()),
                FormatMicros(static_cast<std::int64_t>(histogram.Mean())).c_str(),
                FormatMicros(histogram.P50()).c_str(),
                FormatMicros(histogram.P90()).c_str(),
                FormatMicros(histogram.P99()).c_str(),
                FormatMicros(histogram.Max()).c_str());
  return buffer;
}

}  // namespace jdvs
