// Tests for percentile/mean/stddev helpers and the latency summary.
#include "l3/common/stats.h"

#include "l3/common/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

namespace l3 {
namespace {

TEST(Percentile, EmptyIsZero) {
  EXPECT_EQ(percentile(std::vector<double>{}, 0.5), 0.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{3.5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 3.5);
}

TEST(Percentile, InterpolatesLikeNumpy) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0 / 3.0), 2.0);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);  // classic example
}

TEST(Stats, StddevDegenerateCases) {
  EXPECT_EQ(stddev(std::vector<double>{}), 0.0);
  EXPECT_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Summarize, OrdersPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
  EXPECT_NEAR(s.p50, 500.5, 1.0);
  EXPECT_NEAR(s.p99, 990.0, 1.5);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(Summarize, EmptyIsAllZero) {
  const LatencySummary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(Percentile, SortedVariantMatchesUnsorted) {
  const std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, q), percentile(values, q));
  }
}

TEST(Percentile, LargeSampleMatchesComparisonSort) {
  // Above the internal radix-sort threshold the quantiles must still be
  // bit-identical to what a comparison sort produces — the scenario golden
  // traces hash them. Mix magnitudes across several octaves and exact
  // duplicates so every digit pass and tie path is exercised.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<double> values;
  values.reserve(60000);
  for (int i = 0; i < 60000; ++i) {
    const double magnitude =
        static_cast<double>(1ull << (next() % 20)) / 1024.0;
    values.push_back(magnitude *
                     (static_cast<double>(next() % 10000) + 1.0) / 10000.0);
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile(values, q), percentile_sorted(sorted, q));
  }
  const LatencySummary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.p50, percentile_sorted(sorted, 0.50));
  EXPECT_DOUBLE_EQ(s.p999, percentile_sorted(sorted, 0.999));
  EXPECT_DOUBLE_EQ(s.max, sorted.back());
}

TEST(Percentile, SelectMatchesSortedBitForBit) {
  // The selection helper must reproduce percentile_sorted() exactly — the
  // timeline p50/p99 it computes are hashed by the golden traces. Draws
  // from a small value set so duplicates straddle the selected positions,
  // and reuses one span across quantiles as aggregate_timeline does.
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (const std::size_t n : {1u, 2u, 3u, 2049u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) {
        v = static_cast<double>(next() % 97) * 0.37 + 1e-3;
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        const double expected = percentile_sorted(sorted, q);
        const double got = percentile_select(values, q);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(expected))
            << "n=" << n << " q=" << q << " got " << got << " expected "
            << expected;
      }
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(percentile_select(empty, 0.5), 0.0);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_ms(0.1234, 1), "123.4");
  EXPECT_EQ(fmt_percent(0.915, 1), "91.5");
}

}  // namespace
}  // namespace l3
