// Unit + property tests for FixedBucketHistogram and the Prometheus-style
// histogram_quantile.
#include "l3/common/histogram.h"

#include "l3/common/assert.h"
#include "l3/common/rng.h"
#include "l3/common/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace l3 {
namespace {

/// The Prometheus cumulative form of `h`'s per-bucket counts.
std::vector<double> cumulative_counts(const FixedBucketHistogram& h) {
  std::vector<double> cumulative(h.counts().size());
  double running = 0.0;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    running += static_cast<double>(h.counts()[i]);
    cumulative[i] = running;
  }
  return cumulative;
}

TEST(FixedBucketHistogram, DefaultBoundsAreLinkerdLike) {
  const auto& bounds = FixedBucketHistogram::default_latency_bounds();
  EXPECT_EQ(bounds.front(), 0.001);
  EXPECT_EQ(bounds.back(), 60.0);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(FixedBucketHistogram, CountsLandInCorrectBuckets) {
  FixedBucketHistogram h({0.010, 0.100, 1.0});
  h.record(0.005);   // bucket 0 (<= 10ms)
  h.record(0.010);   // bucket 0 (boundary inclusive per lower_bound)
  h.record(0.050);   // bucket 1
  h.record(0.500);   // bucket 2
  h.record(5.0);     // +Inf bucket
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total_count(), 5u);
}

TEST(FixedBucketHistogram, ResetZeroes) {
  FixedBucketHistogram h;
  h.record(0.05);
  h.reset();
  EXPECT_EQ(h.total_count(), 0u);
}

TEST(HistogramQuantile, InterpolatesLinearlyWithinBucket) {
  // Buckets: (0, 100ms], (100ms, 200ms], +Inf. 100 observations uniformly
  // in the second bucket → P50 should interpolate to ~150 ms.
  const std::vector<double> bounds = {0.1, 0.2};
  const std::vector<double> cumulative = {0.0, 100.0, 100.0};
  EXPECT_NEAR(histogram_quantile(bounds, cumulative, 0.5), 0.15, 1e-12);
  EXPECT_NEAR(histogram_quantile(bounds, cumulative, 0.25), 0.125, 1e-12);
}

TEST(HistogramQuantile, FirstBucketInterpolatesFromZero) {
  const std::vector<double> bounds = {0.1, 0.2};
  const std::vector<double> cumulative = {10.0, 10.0, 10.0};
  EXPECT_NEAR(histogram_quantile(bounds, cumulative, 0.5), 0.05, 1e-12);
}

TEST(HistogramQuantile, InfBucketReturnsHighestFiniteBound) {
  const std::vector<double> bounds = {0.1, 0.2};
  const std::vector<double> cumulative = {0.0, 0.0, 50.0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cumulative, 0.99), 0.2);
}

TEST(HistogramQuantile, ZeroTotalReturnsZero) {
  const std::vector<double> bounds = {0.1, 0.2};
  const std::vector<double> cumulative = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cumulative, 0.99), 0.0);
}

TEST(HistogramQuantile, MatchesExactQuantileOnDenseData) {
  // End-to-end: record a log-normal through FixedBucketHistogram and check
  // the estimated P99 is within a bucket of the exact value.
  FixedBucketHistogram h;
  SplitRng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.lognormal(-2.5, 0.7);  // median ~82 ms
    values.push_back(v);
    h.record(v);
  }
  const std::vector<double> cumulative = cumulative_counts(h);
  const double exact = percentile(values, 0.99);
  const double approx = histogram_quantile(h.bounds(), cumulative, 0.99);
  // Bucket resolution around 400-500 ms is coarse (100 ms buckets).
  EXPECT_NEAR(approx, exact, 0.1);
}

TEST(HistogramQuantile, RejectsBadArgs) {
  const std::vector<double> bounds = {0.1};
  const std::vector<double> wrong_size = {1.0};
  EXPECT_THROW(histogram_quantile(bounds, wrong_size, 0.5), ContractViolation);
  const std::vector<double> ok = {1.0, 1.0};
  EXPECT_THROW(histogram_quantile(bounds, ok, 0.0), ContractViolation);
  EXPECT_THROW(histogram_quantile(bounds, ok, 1.5), ContractViolation);
}

/// Property sweep: quantile estimates are monotone in q.
class QuantileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotone, MonotoneInQ) {
  FixedBucketHistogram h;
  SplitRng rng(GetParam());
  for (int i = 0; i < 5000; ++i) h.record(rng.lognormal(-3.0, 1.2));
  const std::vector<double> cumulative = cumulative_counts(h);
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double v = histogram_quantile(h.bounds(), cumulative, q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone,
                         ::testing::Values(1, 7, 13, 99, 12345));

}  // namespace
}  // namespace l3
