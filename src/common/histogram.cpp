#include "l3/common/histogram.h"

#include <algorithm>
#include <cmath>

namespace l3 {

const std::vector<double>& FixedBucketHistogram::default_latency_bounds() {
  // Linkerd proxy response_latency_ms bucket bounds, converted to seconds.
  static const std::vector<double> kBounds = {
      0.001, 0.002, 0.003, 0.004, 0.005, 0.010, 0.020, 0.030,
      0.040, 0.050, 0.100, 0.200, 0.300, 0.400, 0.500, 1.000,
      2.000, 3.000, 4.000, 5.000, 10.00, 30.00, 60.00};
  return kBounds;
}

FixedBucketHistogram::FixedBucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  L3_EXPECTS(!bounds_.empty());
  L3_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void FixedBucketHistogram::record(double value) {
  L3_EXPECTS(std::isfinite(value));
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  total_ += 1;
}

void FixedBucketHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

double histogram_quantile(std::span<const double> bounds,
                          std::span<const double> cumulative, double q) {
  L3_EXPECTS(q > 0.0 && q <= 1.0);
  L3_EXPECTS(cumulative.size() == bounds.size() + 1);
  const double total = cumulative.back();
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (cumulative[i] >= rank) {
      if (i == cumulative.size() - 1) {
        // +Inf bucket: Prometheus returns the highest finite bound.
        return bounds.back();
      }
      const double bucket_end = bounds[i];
      const double bucket_start = (i == 0) ? 0.0 : bounds[i - 1];
      const double prev_cum = (i == 0) ? 0.0 : cumulative[i - 1];
      const double in_bucket = cumulative[i] - prev_cum;
      if (in_bucket <= 0.0) return bucket_end;
      return bucket_start +
             (bucket_end - bucket_start) * ((rank - prev_cum) / in_bucket);
    }
  }
  return bounds.back();
}

}  // namespace l3
