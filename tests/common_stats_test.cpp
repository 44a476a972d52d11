// Tests for percentile/mean/stddev helpers and the latency summary.
#include "l3/common/stats.h"

#include "l3/common/order_key.h"
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

// Bits of a double, so exact comparisons also tell -0.0 from +0.0 and
// report mismatches readably.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// summarize() by the textbook route: copy, comparison sort, read each
// quantile with percentile_sorted(), mean by one in-order sum.
LatencySummary sorted_summary(std::vector<double> values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.mean = mean(values);
  std::sort(values.begin(), values.end());
  s.p50 = percentile_sorted(values, 0.50);
  s.p90 = percentile_sorted(values, 0.90);
  s.p95 = percentile_sorted(values, 0.95);
  s.p99 = percentile_sorted(values, 0.99);
  s.p999 = percentile_sorted(values, 0.999);
  s.max = values.back();
  return s;
}

void expect_same_bits(const LatencySummary& got, const LatencySummary& want,
                      std::size_t n) {
  EXPECT_EQ(got.count, want.count) << "n=" << n;
  EXPECT_EQ(bits(got.mean), bits(want.mean)) << "mean, n=" << n;
  EXPECT_EQ(bits(got.p50), bits(want.p50)) << "p50, n=" << n;
  EXPECT_EQ(bits(got.p90), bits(want.p90)) << "p90, n=" << n;
  EXPECT_EQ(bits(got.p95), bits(want.p95)) << "p95, n=" << n;
  EXPECT_EQ(bits(got.p99), bits(want.p99)) << "p99, n=" << n;
  EXPECT_EQ(bits(got.p999), bits(want.p999)) << "p999, n=" << n;
  EXPECT_EQ(bits(got.max), bits(want.max)) << "max, n=" << n;
}

TEST(Percentile, LargeSampleMatchesComparisonSort) {
  // Selection on order keys must give exactly what a comparison sort
  // gives, at every size: the scenario golden traces hash these bits. The
  // sizes straddle the 2048-sample line where an earlier version switched
  // from a comparison sort to a radix sort. Magnitudes span several
  // octaves, and exact duplicates exercise the tie paths.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (const std::size_t n : {1u, 2u, 3u, 2047u, 2048u, 2049u, 60000u}) {
    std::vector<double> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double magnitude =
          static_cast<double>(1ull << (next() % 20)) / 1024.0;
      values.push_back(magnitude *
                       (static_cast<double>(next() % 10000) + 1.0) / 10000.0);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(bits(percentile(values, q)), bits(percentile_sorted(sorted, q)))
          << "n=" << n << " q=" << q;
    }
    expect_same_bits(summarize(values), sorted_summary(values), n);
  }
}

TEST(Percentile, KeyPercentilesMatchSortedBitForBit) {
  // key_percentiles() selects the ranks of several quantiles in one sweep;
  // each must equal percentile_sorted() alone. A small value set puts
  // duplicates across the selected ranks, and close quantiles (0.5 next
  // to 0.5005) share ranks.
  std::uint64_t state = 0x5851f42d4c957f2dull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::vector<double> qs = {0.0, 0.5, 0.5005, 0.9, 0.99, 1.0};
  for (const std::size_t n : {1u, 2u, 3u, 10u, 2049u}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) v = static_cast<double>(next() % 31) * 0.37;
      std::vector<std::uint64_t> keys;
      for (const double v : values) keys.push_back(order_key(v));
      std::vector<double> got(qs.size());
      key_percentiles(keys, qs, got);
      std::sort(values.begin(), values.end());
      for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(bits(got[i]), bits(percentile_sorted(values, qs[i])))
            << "n=" << n << " q=" << qs[i];
      }
    }
  }
  std::vector<std::uint64_t> empty;
  std::vector<double> out = {1.0, 1.0};
  key_percentiles(empty, std::vector<double>{0.5, 0.99}, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0}));
}

TEST(Summarize, OrderKeysPutNegativeZeroBelowPositiveZero) {
  // operator< leaves -0.0 and +0.0 unordered, so a comparison sort may put
  // either zero last; order keys always put -0.0 first. With both in the
  // sample, max is therefore +0.0 whatever the input order.
  for (const auto& v : {std::vector<double>{0.0, -0.0},
                        std::vector<double>{-0.0, 0.0}}) {
    EXPECT_EQ(bits(summarize(v).max), bits(0.0));
    EXPECT_EQ(bits(percentile(v, 1.0)), bits(0.0));
  }
  EXPECT_EQ(bits(summarize(std::vector<double>{-0.0}).max), bits(-0.0));
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
