// Latency reporting helpers over common/Histogram.
#pragma once

#include <string>

#include "common/histogram.h"

namespace jdvs {

// Formats a microsecond value as a human-friendly string ("132ms", "1.2s").
std::string FormatMicros(std::int64_t micros);

// One-line summary: count, mean, p50/p90/p99, max.
std::string SummarizeLatency(const Histogram& histogram,
                             const std::string& label);

}  // namespace jdvs
