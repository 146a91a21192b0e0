// Shared pieces of the repository benchmark (perfbench.cc drives the
// workloads, layers.cc times each layer's public entry points).
//
// Everything measured here is measured with the benchmark's own clocks and
// its own per-request samples: no program histogram, no program load
// client. The program only receives generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "search/cluster_builder.h"

namespace perfbench {

// ---- Clocks ----------------------------------------------------------------

std::int64_t NowNs();         // steady clock
std::int64_t ProcessCpuNs();  // every thread of the process, user + system
std::int64_t ThreadCpuNs();   // the calling thread only

// ---- Exact order statistics over the benchmark's own samples ---------------

// Linear interpolation between closest ranks (numpy's default), on a copy.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline constexpr std::size_t kK = 10;  // results per query

// ---- Generated inputs ------------------------------------------------------

enum class FilterKind : std::uint8_t { kNone = 0, kBroad = 1, kNarrow = 2 };

struct QueryOp {
  std::int64_t offset_ns = 0;  // scheduled send time, from window start
  jdvs::QueryImage image;
  FilterKind filter = FilterKind::kNone;
};

struct Inputs {
  std::vector<QueryOp> warmup;
  std::vector<QueryOp> window;
  std::vector<QueryOp> recall;
  jdvs::FilterExpression broad;   // sales >= p30
  jdvs::FilterExpression narrow;  // sales >= p95
  // The update-only phase's chunks first, then the bursts.
  std::vector<jdvs::ProductUpdateMessage> updates;
  std::size_t update_phase_messages = 0;
  std::size_t bursts = 0;
  std::uint64_t catalog_digest = 0;
  std::uint64_t query_digest = 0;
  std::uint64_t update_digest = 0;

  const jdvs::FilterExpression& Filter(FilterKind kind) const;
};

// ---- Spans -----------------------------------------------------------------

// In-memory span log, written out when the run ends. Single writer (the
// main thread); concurrent phases keep their own timestamps and are turned
// into spans once they have ended.
struct Span {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  // Opens a span that End() closes; returns its id.
  std::uint64_t Begin(std::string name, std::uint64_t trace_id,
                      std::uint64_t parent_id, std::int64_t start_ns);
  void End(std::uint64_t span_id, std::int64_t end_ns);
  std::uint64_t Add(std::string name, std::uint64_t trace_id,
                    std::uint64_t parent_id, std::int64_t start_ns,
                    std::int64_t end_ns) {
    const std::uint64_t id = Begin(std::move(name), trace_id, parent_id,
                                   start_ns);
    End(id, end_ns);
    return id;
  }
  // Duration minus the part of it that child spans cover, per span of
  // `name`, in microseconds.
  std::vector<double> SelfTimesUs(const std::string& name) const;
  std::vector<double> DurationsUs(const std::string& name) const;
  bool WriteJsonLines(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

// ---- Per-layer pass --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Single-client pass over each layer's public entry points on a quiescent
// cluster. Appends per-layer metrics to `out` and spans to `spans`.
void RunLayerPass(jdvs::VisualSearchCluster& cluster, const Inputs& inputs,
                  std::uint64_t seed, SpanLog& spans,
                  std::vector<Metric>& out);

}  // namespace perfbench
