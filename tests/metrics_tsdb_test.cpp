// Tests for the TSDB queries: rate windows, gauge averaging,
// histogram quantiles over bucket rates, retention, and the >=2-samples
// rule that motivates the paper's 10 s query window.
#include "l3/metrics/tsdb.h"

#include "l3/common/assert.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace l3::metrics {
namespace {

using Row = std::vector<double>;

TEST(Tsdb, RateNeedsTwoSamples) {
  TimeSeriesDb db;
  db.append("c", 5.0, 10.0);
  EXPECT_FALSE(db.rate("c", 10.0, 10.0).has_value());
  db.append("c", 10.0, 30.0);
  const auto r = db.rate("c", 10.0, 10.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, (30.0 - 10.0) / 5.0);  // 4 per second
}

TEST(Tsdb, RateUsesOnlyWindowSamples) {
  TimeSeriesDb db;
  db.append("c", 0.0, 0.0);
  db.append("c", 5.0, 100.0);
  db.append("c", 10.0, 100.0);
  db.append("c", 15.0, 100.0);
  // Window [5, 15]: first = (5, 100), last = (15, 100) → rate 0.
  const auto r = db.rate("c", 10.0, 15.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 0.0);
}

TEST(Tsdb, UnknownSeriesReturnsNullopt) {
  TimeSeriesDb db;
  EXPECT_FALSE(db.rate("nope", 10.0, 100.0).has_value());
  EXPECT_FALSE(db.avg("nope", 10.0, 100.0).has_value());
  EXPECT_FALSE(db.last("nope", 10.0, 100.0).has_value());
  EXPECT_FALSE(db.quantile("nope", 0.99, 10.0, 100.0).has_value());
}

TEST(Tsdb, AvgOfGaugeSamples) {
  TimeSeriesDb db;
  db.append("g", 0.0, 2.0);
  db.append("g", 5.0, 4.0);
  db.append("g", 10.0, 6.0);
  const auto a = db.avg("g", 10.0, 10.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(*a, 4.0);
  // One sample is enough for avg (unlike rate).
  const auto single = db.avg("g", 2.0, 10.0);
  ASSERT_TRUE(single.has_value());
  EXPECT_DOUBLE_EQ(*single, 6.0);
}

TEST(Tsdb, LastReturnsMostRecentInWindow) {
  TimeSeriesDb db;
  db.append("g", 0.0, 1.0);
  db.append("g", 5.0, 2.0);
  db.append("g", 10.0, 3.0);
  EXPECT_DOUBLE_EQ(*db.last("g", 20.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(*db.last("g", 20.0, 7.0), 2.0);
}

TEST(Tsdb, HistogramQuantileFromBucketDeltas) {
  TimeSeriesDb db;
  const std::vector<double> bounds = {0.1, 0.2};
  // At t=0: 0 observations. At t=10: 100 observations, all in (0.1, 0.2].
  const HistogramId h = db.histogram_series("h");
  db.set_histogram_bounds(h, bounds);
  db.append_histogram(h, 0.0, Row{0.0, 0.0, 0.0});
  db.append_histogram(h, 10.0, Row{0.0, 100.0, 100.0});
  const auto q = db.quantile("h", 0.5, 10.0, 10.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_NEAR(*q, 0.15, 1e-12);
}

TEST(Tsdb, HistogramQuantileIgnoresHistoryBeforeWindow) {
  TimeSeriesDb db;
  const std::vector<double> bounds = {0.1, 0.2};
  // Old traffic in bucket 0; recent traffic in bucket 1. The windowed
  // quantile must only see the recent delta.
  const HistogramId h = db.histogram_series("h");
  db.set_histogram_bounds(h, bounds);
  db.append_histogram(h, 0.0, Row{1000.0, 1000.0, 1000.0});
  db.append_histogram(h, 50.0, Row{1000.0, 1000.0, 1000.0});
  db.append_histogram(h, 60.0, Row{1000.0, 1100.0, 1100.0});
  const auto q = db.quantile("h", 0.5, 10.0, 60.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_GT(*q, 0.1);
}

TEST(Tsdb, HistogramQuantileNulloptOnNoTraffic) {
  TimeSeriesDb db;
  const std::vector<double> bounds = {0.1};
  const HistogramId h = db.histogram_series("h");
  db.set_histogram_bounds(h, bounds);
  db.append_histogram(h, 0.0, Row{5.0, 5.0});
  db.append_histogram(h, 10.0, Row{5.0, 5.0});
  EXPECT_FALSE(db.quantile("h", 0.99, 10.0, 10.0).has_value());
}

TEST(Tsdb, RetentionDropsOldSamples) {
  TimeSeriesDb db(/*retention=*/30.0);
  for (int t = 0; t <= 100; t += 5) {
    db.append("c", static_cast<double>(t), static_cast<double>(t));
  }
  // Samples older than 70 are gone; a window over them returns nothing.
  EXPECT_FALSE(db.rate("c", 10.0, 40.0).has_value());
  EXPECT_TRUE(db.rate("c", 10.0, 100.0).has_value());
}

TEST(Tsdb, RejectsInvalidRetention) {
  // Negative retention would trim the sample just appended; NaN and +inf
  // would never trim at all.
  EXPECT_THROW(TimeSeriesDb(-1.0), ContractViolation);
  EXPECT_THROW(TimeSeriesDb(0.0), ContractViolation);
  EXPECT_THROW(TimeSeriesDb(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  EXPECT_THROW(TimeSeriesDb(std::numeric_limits<double>::infinity()),
               ContractViolation);
  EXPECT_NO_THROW(TimeSeriesDb(10.0));
}

TEST(Tsdb, RejectsOutOfOrderAppends) {
  TimeSeriesDb db;
  db.append("c", 10.0, 1.0);
  EXPECT_THROW(db.append("c", 5.0, 2.0), ContractViolation);
}

TEST(Tsdb, RejectsMismatchedHistogramBounds) {
  TimeSeriesDb db;
  const HistogramId h = db.histogram_series("h");
  db.set_histogram_bounds(h, Row{0.1});
  db.append_histogram(h, 0.0, Row{0.0, 0.0});
  db.set_histogram_bounds(h, Row{0.1});  // re-declaring the same bounds is fine
  EXPECT_THROW(db.set_histogram_bounds(h, Row{0.2}), ContractViolation);
}

TEST(Tsdb, CompactDropsStaleSamplesOfIdleSeries) {
  TimeSeriesDb db(/*retention=*/30.0);
  // "idle" receives one early batch and then goes quiet — per-series trim
  // only runs on append, so without compact() its samples would live forever.
  db.append("idle", 0.0, 1.0);
  db.append("idle", 5.0, 2.0);
  db.append("live", 0.0, 1.0);
  EXPECT_EQ(db.sample_count("idle"), 2u);
  db.append("live", 100.0, 2.0);
  EXPECT_EQ(db.sample_count("idle"), 2u);  // untouched by other appends

  db.compact(100.0);
  EXPECT_EQ(db.sample_count("idle"), 0u);
  EXPECT_EQ(db.series_count(), 1u);  // empty series erased entirely
  EXPECT_EQ(db.sample_count("live"), 1u);
}

TEST(Tsdb, CompactErasesEmptyHistogramSeries) {
  TimeSeriesDb db(/*retention=*/30.0);
  const std::vector<double> bounds = {0.1};
  const HistogramId idle = db.histogram_series("idle_h");
  const HistogramId live = db.histogram_series("live_h");
  db.set_histogram_bounds(idle, bounds);
  db.set_histogram_bounds(live, bounds);
  db.append_histogram(idle, 0.0, Row{1.0, 2.0});
  db.append_histogram(live, 100.0, Row{1.0, 2.0});
  EXPECT_EQ(db.histogram_series_count(), 2u);
  db.compact(100.0);
  EXPECT_EQ(db.histogram_series_count(), 1u);
  EXPECT_EQ(db.histogram_sample_count("idle_h"), 0u);
  EXPECT_EQ(db.histogram_sample_count("live_h"), 1u);
}

TEST(Tsdb, CompactKeepsSamplesInsideRetention) {
  TimeSeriesDb db(/*retention=*/30.0);
  db.append("c", 80.0, 1.0);
  db.append("c", 90.0, 2.0);
  db.compact(100.0);
  EXPECT_EQ(db.sample_count("c"), 2u);
  ASSERT_TRUE(db.rate("c", 30.0, 100.0).has_value());
}

TEST(Tsdb, FiveSecondScrapeTenSecondWindowAlwaysHasTwoSamples) {
  // The paper's §4 choice: scrape every 5 s, query 10 s windows — verify
  // the invariant it exists for.
  TimeSeriesDb db;
  for (int i = 0; i <= 20; ++i) {
    db.append("c", 5.0 * i, static_cast<double>(i));
  }
  for (double now = 10.0; now <= 100.0; now += 1.7) {
    EXPECT_TRUE(db.rate("c", 10.0, now).has_value()) << "now=" << now;
  }
}

TEST(Tsdb, SeriesIdInterningIsStable) {
  TimeSeriesDb db;
  const SeriesId a = db.series("req{dst=\"c1\"}");
  const SeriesId a2 = db.series("req{dst=\"c1\"}");
  const SeriesId b = db.series("req{dst=\"c2\"}");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, a2);
  EXPECT_FALSE(a == b);
  // Scalar and histogram namespaces are independent.
  const HistogramId h = db.histogram_series("req{dst=\"c1\"}");
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h, db.histogram_series("req{dst=\"c1\"}"));
}

TEST(Tsdb, FindSeriesDoesNotCreate) {
  TimeSeriesDb db;
  EXPECT_FALSE(db.find_series("missing{}").valid());
  EXPECT_EQ(db.series_count(), 0u);
  const SeriesId id = db.series("present{}");
  EXPECT_EQ(db.find_series("present{}"), id);
}

TEST(Tsdb, IdAndStringQueriesAgree) {
  TimeSeriesDb db;
  const SeriesId id = db.series("lat{}");
  db.append(id, 5.0, 1.0);
  db.append(id, 10.0, 4.0);
  ASSERT_TRUE(db.rate(id, 10.0, 10.0).has_value());
  EXPECT_EQ(db.rate(id, 10.0, 10.0), db.rate("lat{}", 10.0, 10.0));
  EXPECT_EQ(db.avg(id, 10.0, 10.0), db.avg("lat{}", 10.0, 10.0));
  EXPECT_EQ(db.last(id, 10.0, 10.0), db.last("lat{}", 10.0, 10.0));
  EXPECT_EQ(db.sample_count(id), db.sample_count("lat{}"));
}

TEST(Tsdb, InternedIdStaysUsableAfterCompactEmptiesSeries) {
  TimeSeriesDb db(/*retention=*/30.0);
  const SeriesId id = db.series("c{}");
  db.append(id, 0.0, 1.0);
  EXPECT_EQ(db.series_count(), 1u);
  db.compact(100.0);  // all samples aged out
  EXPECT_EQ(db.series_count(), 0u);
  EXPECT_EQ(db.sample_count(id), 0u);
  db.append(id, 100.0, 2.0);  // the handle survives the compact
  EXPECT_EQ(db.series_count(), 1u);
  const auto v = db.last(id, 10.0, 100.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 2.0);
}

}  // namespace
}  // namespace l3::metrics
