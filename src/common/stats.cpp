#include "l3/common/stats.h"

#include "l3/common/assert.h"
#include "l3/common/order_key.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace l3 {
namespace {

/// Most quantiles key_percentiles() takes in one call.
constexpr std::size_t kMaxQuantiles = 8;

/// Where the q-quantile of n >= 2 sorted values is read: interpolated
/// between ranks lo and hi by frac (a sample of one is its own quantile).
/// Every quantile reader here goes through this and interpolate(), so all
/// of them round alike.
struct QuantilePos {
  std::size_t lo;
  std::size_t hi;
  double frac;

  double interpolate(double at_lo, double at_hi) const {
    return at_lo * (1.0 - frac) + at_hi * frac;
  }
};

QuantilePos quantile_pos(std::size_t n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

/// Selects, in place, the ranks each quantile in `qs` reads and the last
/// rank (the maximum): afterwards keys[r] is the r-th smallest key for
/// every such r. The ranks go in ascending order. Once nth_element has
/// placed rank r, nothing above r is smaller, so the next search runs only
/// on the tail above r; a rank at the head of that tail is just its
/// minimum. Writes each quantile, read by percentile_sorted()'s formula,
/// to `out`. The key mapping round-trips exactly, so the result is
/// bit-identical to percentile_sorted() on the sorted values.
void select_quantiles(std::span<std::uint64_t> keys,
                      std::span<const double> qs, double* out) {
  L3_EXPECTS(qs.size() <= kMaxQuantiles);
  const std::size_t n = keys.size();
  L3_EXPECTS(n > 0);
  std::array<QuantilePos, kMaxQuantiles> pos;
  std::array<std::size_t, 2 * kMaxQuantiles + 1> ranks;
  std::size_t m = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    L3_EXPECTS(qs[i] >= 0.0 && qs[i] <= 1.0);
    pos[i] = quantile_pos(n, qs[i]);
    ranks[m++] = pos[i].lo;
    ranks[m++] = pos[i].hi;
  }
  ranks[m++] = n - 1;
  std::sort(ranks.begin(), ranks.begin() + static_cast<std::ptrdiff_t>(m));
  auto first = keys.begin();
  for (std::size_t j = 0; j < m; ++j) {
    const auto nth = keys.begin() + static_cast<std::ptrdiff_t>(ranks[j]);
    if (nth < first) continue;  // a repeated rank, already in place
    if (nth == first) {
      std::iter_swap(first, std::min_element(first, keys.end()));
    } else {
      std::nth_element(first, nth, keys.end());
    }
    first = nth + 1;
  }
  for (std::size_t i = 0; i < qs.size(); ++i) {
    out[i] = n == 1 ? key_to_double(keys[0])
                    : pos[i].interpolate(key_to_double(keys[pos[i].lo]),
                                         key_to_double(keys[pos[i].hi]));
  }
}

}  // namespace

double percentile(std::span<const double> values, double q) {
  L3_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  std::vector<std::uint64_t> keys;
  keys.reserve(values.size());
  for (const double v : values) keys.push_back(order_key(v));
  double out;
  select_quantiles(keys, {&q, 1}, &out);
  return out;
}

double percentile_sorted(std::span<const double> sorted, double q) {
  L3_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const QuantilePos p = quantile_pos(sorted.size(), q);
  return p.interpolate(sorted[p.lo], sorted[p.hi]);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

LatencySummary summarize(std::span<const double> values) {
  std::vector<std::uint64_t> keys;
  keys.reserve(values.size());
  double sum = 0.0;
  for (const double v : values) {
    keys.push_back(order_key(v));
    sum += v;
  }
  return summarize_keys(keys, sum);
}

LatencySummary summarize_keys(std::span<std::uint64_t> keys, double sum) {
  LatencySummary s;
  s.count = keys.size();
  if (keys.empty()) return s;
  s.mean = sum / static_cast<double>(keys.size());
  static constexpr std::array<double, 5> kQs = {0.50, 0.90, 0.95, 0.99,
                                                0.999};
  std::array<double, kQs.size()> q;
  select_quantiles(keys, kQs, q.data());
  s.p50 = q[0];
  s.p90 = q[1];
  s.p95 = q[2];
  s.p99 = q[3];
  s.p999 = q[4];
  s.max = key_to_double(keys.back());
  return s;
}

void key_percentiles(std::span<std::uint64_t> keys,
                     std::span<const double> qs, std::span<double> out) {
  L3_EXPECTS(out.size() == qs.size());
  if (keys.empty()) {
    for (const double q : qs) L3_EXPECTS(q >= 0.0 && q <= 1.0);
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  select_quantiles(keys, qs, out.data());
}

}  // namespace l3
