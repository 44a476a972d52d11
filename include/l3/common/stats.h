// Small statistics helpers used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace l3 {

/// Exact q-quantile of a sample (nearest-rank with linear interpolation,
/// matching numpy's default). `values` need not be sorted: the two order
/// statistics the quantile interpolates are selected (nth_element) on a
/// copy of the sample's order keys (order_key.h), never sorted. Returns 0
/// for an empty sample.
double percentile(std::span<const double> values, double q);

/// As percentile(), but `sorted` must already be in ascending order — no
/// copy, no sort. Lets callers that need several quantiles of the same
/// sample sort once; the result is identical to percentile() on the
/// unsorted sample.
double percentile_sorted(std::span<const double> sorted, double q);

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

/// Builds a LatencySummary from raw samples. Every order statistic is
/// found by selection on the samples' order keys (see summarize_keys()).
LatencySummary summarize(std::span<const double> values);

/// summarize() of a sample given as the order_key() of each value and the
/// sum of the values in sample order (which fixes `mean`'s rounding), for
/// callers that build the keys as they filter their records. Bit-identical
/// to a comparison sort read by percentile_sorted(), except that order keys
/// put -0.0 below +0.0, which operator< leaves unordered. Reorders `keys`.
LatencySummary summarize_keys(std::span<std::uint64_t> keys, double sum);

/// percentile() at each q in `qs` (at most 8) into `out`, for a sample
/// given as its order keys, selecting every rank in one sweep as
/// summarize_keys() does. Reorders `keys`.
void key_percentiles(std::span<std::uint64_t> keys,
                     std::span<const double> qs, std::span<double> out);

}  // namespace l3
