// The latency histogram the metrics layer exports, and the quantile
// estimate read from it:
//
//  * `FixedBucketHistogram` — a coarse, fixed-boundary histogram mirroring
//    what Linkerd proxies export to Prometheus. The L3 controller only ever
//    sees quantiles estimated from these buckets, reproducing the
//    measurement granularity (and its artefacts) of the real system.
//  * `histogram_quantile` — Prometheus' quantile estimate over the
//    cumulative bucket counts.
//
// Client-side ground-truth percentiles do not go through a histogram: the
// runners select them exactly from the request records (common/stats.h).
#pragma once

#include "l3/common/assert.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace l3 {

/// Fixed-boundary histogram with Linkerd-style latency buckets.
///
/// Boundaries are upper bounds in seconds; an implicit +Inf bucket catches
/// the rest. `counts()` are per-bucket (not cumulative); the metrics layer
/// converts to Prometheus cumulative form when exporting.
class FixedBucketHistogram {
 public:
  /// Linkerd's default latency bucket upper bounds, in seconds
  /// (1 ms … 60 s, matching the proxy's `response_latency_ms` buckets).
  static const std::vector<double>& default_latency_bounds();

  /// Constructs with the given strictly increasing upper bounds (seconds).
  explicit FixedBucketHistogram(std::vector<double> upper_bounds);

  /// Constructs with the default Linkerd latency bounds.
  FixedBucketHistogram() : FixedBucketHistogram(default_latency_bounds()) {}

  /// Records one observation.
  void record(double value);

  /// Per-bucket counts; size() == bounds().size() + 1 (last is +Inf).
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Bucket upper bounds in seconds (excluding the implicit +Inf).
  const std::vector<double>& bounds() const { return bounds_; }

  std::uint64_t total_count() const { return total_; }

  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Prometheus `histogram_quantile()` over a cumulative-count vector.
///
/// `bounds` are the finite bucket upper bounds; `cumulative` must have
/// bounds.size() + 1 entries (the last being the +Inf bucket's cumulative
/// count, i.e. the total). Values need not be integers — in practice they
/// are per-second rates. Linear interpolation within the located bucket,
/// exactly as Prometheus computes it; returns the highest finite bound when
/// the quantile falls in the +Inf bucket, and 0 when the total is 0.
double histogram_quantile(std::span<const double> bounds,
                          std::span<const double> cumulative, double q);

}  // namespace l3
