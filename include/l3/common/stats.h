// Small statistics helpers used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace l3 {

/// Exact q-quantile of a sample (nearest-rank with linear interpolation,
/// matching numpy's default). `values` need not be sorted; an internal copy
/// is sorted. Returns 0 for an empty sample.
double percentile(std::span<const double> values, double q);

/// As percentile(), but `sorted` must already be in ascending order — no
/// copy, no sort. Lets callers that need several quantiles of the same
/// sample sort once; the result is identical to percentile() on the
/// unsorted sample.
double percentile_sorted(std::span<const double> sorted, double q);

/// As percentile_sorted() on the sorted sample, bit for bit, but by
/// selection instead of a sort: partially reorders `values` in place, in
/// O(n). Repeated calls on the same span stay exact, since any order of
/// the sample is a valid input.
double percentile_select(std::span<double> values, double q);

/// Arithmetic mean, or 0 for an empty sample.
double mean(std::span<const double> values);

/// Population standard deviation, or 0 for fewer than 2 samples.
double stddev(std::span<const double> values);

/// A one-line latency summary as the paper reports: count plus the usual
/// percentiles, all in the unit of the underlying samples (seconds).
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

/// Builds a LatencySummary from raw samples.
LatencySummary summarize(std::span<const double> values);

}  // namespace l3
