// Tests for the Scraper's columnar snapshot plans (ColumnBlock): plans are
// rebuilt only when the registry version changes, target lookup is by name
// map (first add wins on duplicates, matching the old linear scan), and the
// columnar scrape writes byte-identical data to a straightforward
// per-series copy through the string-keyed TSDB API.
#include "l3/metrics/scraper.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace l3::metrics {
namespace {

class ColumnBlockTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimeSeriesDb tsdb;
  Registry registry;
};

TEST_F(ColumnBlockTest, PlanRebuiltOnlyOnRegistryVersionChange) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.counter("a", {}).add(1.0);
  registry.gauge("g", {}).set(2.0);
  registry.histogram("h", {}).record(0.05);
  EXPECT_EQ(scraper.plan_rebuilds(), 0u);

  scraper.scrape_once();
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);

  // Steady state: mutating existing series never rebuilds the plan.
  for (int i = 0; i < 10; ++i) {
    registry.counter("a", {}).add(1.0);
    registry.histogram("h", {}).record(0.2);
    scraper.scrape_once();
  }
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);

  // A new series bumps the registry version: exactly one more rebuild.
  registry.counter("b", {}).add(3.0);
  scraper.scrape_once();
  scraper.scrape_once();
  EXPECT_EQ(scraper.plan_rebuilds(), 2u);
}

TEST_F(ColumnBlockTest, ColumnarScrapeMatchesPerSeriesCopy) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.counter("req", {{"dst", "a"}}).add(7.0);
  registry.counter("req", {{"dst", "b"}}).add(11.0);
  registry.gauge("inflight", {}).set(4.0);
  HistogramSeries& h = registry.histogram("lat", {});
  for (int i = 0; i < 50; ++i) h.record(0.030 + 0.001 * i);

  // Two scrapes 5 s apart so windowed queries have rate data.
  scraper.scrape_once();
  registry.counter("req", {{"dst", "a"}}).add(5.0);
  for (int i = 0; i < 20; ++i) h.record(0.120);
  sim.run_until(5.0);
  scraper.scrape_once();

  // Oracle: the same two snapshots written through the string-keyed API in
  // registry enumeration order.
  TimeSeriesDb oracle;
  Registry shadow;
  shadow.counter("req", {{"dst", "a"}}).add(7.0);
  shadow.counter("req", {{"dst", "b"}}).add(11.0);
  shadow.gauge("inflight", {}).set(4.0);
  HistogramSeries& sh = shadow.histogram("lat", {});
  for (int i = 0; i < 50; ++i) sh.record(0.030 + 0.001 * i);
  auto copy_all = [&](SimTime at) {
    shadow.for_each(
        [&](const std::string& key, double v) { oracle.append(key, at, v); },
        [&](const std::string& key, double v) { oracle.append(key, at, v); },
        [&](const std::string& key, const HistogramSeries& hs) {
          const HistogramId id = oracle.histogram_series(key);
          oracle.set_histogram_bounds(id, hs.bounds());
          oracle.append_histogram(id, at, hs.cumulative_counts());
        });
  };
  copy_all(0.0);
  shadow.counter("req", {{"dst", "a"}}).add(5.0);
  for (int i = 0; i < 20; ++i) sh.record(0.120);
  copy_all(5.0);

  for (const std::string key : {"req{dst=a}", "req{dst=b}", "inflight{}"}) {
    const auto got = tsdb.rate(key, 10.0, 5.0);
    const auto want = oracle.rate(key, 10.0, 5.0);
    ASSERT_EQ(got.has_value(), want.has_value()) << key;
    if (got) {
      EXPECT_EQ(*got, *want) << key;
    }
    EXPECT_EQ(*tsdb.last(key, 10.0, 5.0), *oracle.last(key, 10.0, 5.0))
        << key;
  }
  for (const double q : {0.5, 0.99}) {
    const auto got = tsdb.quantile("lat{}", q, 10.0, 5.0);
    const auto want = oracle.quantile("lat{}", q, 10.0, 5.0);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(*got, *want) << "q=" << q;
  }
}

TEST_F(ColumnBlockTest, HistogramRowWidthFollowsCustomBounds) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  const std::vector<double> narrow = {0.1};
  const std::vector<double> wide = {0.01, 0.1, 1.0, 10.0};
  registry.histogram("narrow", {}, &narrow).record(0.05);
  registry.histogram("wide", {}, &wide).record(5.0);
  scraper.scrape_once();
  sim.run_until(5.0);
  registry.histogram("narrow", {}, &narrow).record(0.5);
  registry.histogram("wide", {}, &wide).record(0.005);
  scraper.scrape_once();

  const auto narrow_q = tsdb.quantile("narrow{}", 0.5, 10.0, 5.0);
  ASSERT_TRUE(narrow_q.has_value());
  // The second observation lands in the +Inf bucket; the quantile clamps
  // to the highest finite bound.
  EXPECT_DOUBLE_EQ(*narrow_q, 0.1);
  const auto wide_q = tsdb.quantile("wide{}", 0.5, 10.0, 5.0);
  ASSERT_TRUE(wide_q.has_value());
  EXPECT_LE(*wide_q, 0.01 + 1e-12);
}

TEST_F(ColumnBlockTest, TargetLookupIsByNameFirstAddWins) {
  Registry second;
  Scraper scraper(sim, tsdb);
  scraper.add_target("dup", registry);
  scraper.add_target("dup", second);
  registry.counter("a", {}).add(1.0);
  second.counter("b", {}).add(2.0);

  // Disabling "dup" hits the FIRST registered target (the old linear
  // scan's first-match semantics); the second keeps scraping.
  EXPECT_TRUE(scraper.set_target_enabled("dup", false));
  scraper.scrape_once();
  EXPECT_FALSE(tsdb.last("a{}", 1.0, 0.0).has_value());
  EXPECT_TRUE(tsdb.last("b{}", 1.0, 0.0).has_value());

  EXPECT_TRUE(scraper.set_target_enabled("dup", true));
  scraper.scrape_once();
  EXPECT_TRUE(tsdb.last("a{}", 1.0, 0.0).has_value());

  EXPECT_FALSE(scraper.set_target_enabled("missing", false));
}

TEST_F(ColumnBlockTest, DisabledTargetSkipsWithoutPlanChurn) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.counter("a", {}).add(1.0);
  scraper.scrape_once();
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);

  scraper.set_target_enabled("t", false);
  scraper.scrape_once();
  scraper.set_target_enabled("t", true);
  scraper.scrape_once();
  // Enable/disable cycles never invalidate the plan.
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);
}

}  // namespace
}  // namespace l3::metrics
