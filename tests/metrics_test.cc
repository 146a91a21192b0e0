// Tests for the metrics/reporting helpers.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/cdf.h"
#include "metrics/latency_recorder.h"
#include "metrics/time_series.h"
#include "obs/registry.h"

namespace jdvs {
namespace {

TEST(FormatMicrosTest, PicksUnits) {
  EXPECT_EQ(FormatMicros(0), "0us");
  EXPECT_EQ(FormatMicros(999), "999us");
  EXPECT_EQ(FormatMicros(1500), "1.5ms");
  EXPECT_EQ(FormatMicros(132000), "132.0ms");
  EXPECT_EQ(FormatMicros(2'100'000), "2.10s");
}

TEST(SummarizeLatencyTest, ContainsAllFields) {
  Histogram h;
  h.Record(1000);
  h.Record(2000);
  const std::string s = SummarizeLatency(h, "query");
  EXPECT_NE(s.find("query:"), std::string::npos);
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("mean="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

TEST(HourlySeriesTest, CountsByHourAndType) {
  HourlyUpdateSeries series;
  series.AddCount(11, UpdateType::kAddProduct, 3);
  series.AddCount(11, UpdateType::kRemoveProduct);
  series.AddCount(4, UpdateType::kAttributeUpdate);
  EXPECT_EQ(series.CountAt(11, UpdateType::kAddProduct), 3u);
  EXPECT_EQ(series.CountAt(11, UpdateType::kRemoveProduct), 1u);
  EXPECT_EQ(series.CountAt(11, UpdateType::kAttributeUpdate), 0u);
  EXPECT_EQ(series.TotalAt(11), 4u);
  EXPECT_EQ(series.TotalAt(4), 1u);
  EXPECT_EQ(series.TotalAt(0), 0u);
}

TEST(HourlySeriesTest, LatencyPerHour) {
  HourlyUpdateSeries series;
  series.AddLatency(3, 100);
  series.AddLatency(3, 300);
  EXPECT_EQ(series.LatencyAt(3).Count(), 2u);
  EXPECT_EQ(series.LatencyAt(4).Count(), 0u);
  EXPECT_NEAR(series.LatencyAt(3).Mean(), 200.0, 1.0);
}

TEST(CdfPrintTest, EmptyHistogram) {
  Histogram h;
  std::ostringstream os;
  PrintCdfSeconds(os, h);
  EXPECT_EQ(os.str(), "(empty)\n");
}

TEST(CdfPrintTest, MonotoneOutputEndsAtOne) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1000);
  std::ostringstream os;
  PrintCdfSeconds(os, h, 10);
  std::istringstream is(os.str());
  double last_v = -1.0;
  double last_f = -1.0;
  double v;
  double f;
  int rows = 0;
  while (is >> v >> f) {
    EXPECT_GT(v, last_v);
    EXPECT_GT(f, last_f);
    last_v = v;
    last_f = f;
    ++rows;
  }
  EXPECT_GT(rows, 2);
  EXPECT_LE(rows, 15);  // downsampled
  EXPECT_DOUBLE_EQ(last_f, 1.0);
}

// Regression test for the Prometheus histogram exposition: `_bucket` series
// must be cumulative, ascending in `le`, end with `le="+Inf"` equal to the
// count, and agree with _sum/_count. (An earlier rendering emitted summary
// quantiles instead, which scrapers cannot aggregate across instances.)
TEST(HistogramExpositionTest, CumulativeBucketsParseCorrectly) {
  obs::Registry registry;
  Histogram& h =
      registry.GetHistogram(obs::Labeled("jdvs_resp_micros", "tier", "web"));
  const std::int64_t values[] = {3, 40, 40, 512, 9000, 70000, 70001};
  std::int64_t expected_sum = 0;
  for (const std::int64_t v : values) {
    h.Record(v);
    expected_sum += v;
  }

  const std::string text = registry.ExpositionText();
  std::istringstream is(text);
  std::string line;
  std::int64_t last_upper = -1;
  std::uint64_t last_cum = 0;
  std::uint64_t inf_cum = 0;
  int buckets = 0;
  bool saw_inf = false;
  while (std::getline(is, line)) {
    const std::string prefix = "jdvs_resp_micros_bucket{tier=\"web\",le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t le_end = line.find('"', prefix.size());
    ASSERT_NE(le_end, std::string::npos);
    const std::string le = line.substr(prefix.size(), le_end - prefix.size());
    const std::uint64_t cum =
        std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(cum, last_cum) << "buckets must be cumulative: " << line;
    last_cum = cum;
    if (le == "+Inf") {
      saw_inf = true;
      inf_cum = cum;
      continue;
    }
    EXPECT_FALSE(saw_inf) << "+Inf must be the last bucket";
    const std::int64_t upper = std::stoll(le);
    EXPECT_GT(upper, last_upper) << "le bounds must ascend: " << line;
    last_upper = upper;
    ++buckets;
  }
  EXPECT_GE(buckets, 4);  // 7 values spread over >= 4 distinct buckets
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_cum, 7u);  // +Inf == observation count

  EXPECT_NE(text.find("jdvs_resp_micros_count{tier=\"web\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("jdvs_resp_micros_sum{tier=\"web\"} " +
                      std::to_string(expected_sum) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace jdvs
