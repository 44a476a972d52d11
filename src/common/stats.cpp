#include "l3/common/stats.h"

#include "l3/common/assert.h"
#include "l3/common/order_key.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

namespace l3 {
namespace {

/// The sample's order keys, radix-sorted ascending. Individual order
/// statistics convert back through key_to_double on demand — quantile
/// readers only touch a handful of positions, so the full convert-back
/// pass a sorted double vector would need is never paid.
class SortedKeys {
 public:
  /// Byte-wise LSD radix sort. Produces exactly the order std::sort would
  /// on the doubles (the key mapping is a strictly monotone bijection),
  /// but in O(n) passes of sequential traffic instead of n·log n branchy
  /// comparisons — the comparison sort was the dominant cost of
  /// summarizing a full scenario's ~67k latencies. Uniform digit
  /// positions (common in the exponent bytes of same-scale samples) are
  /// skipped outright. Scratch is raw arrays, not vectors: every element
  /// is overwritten before it is read, so value-initialization would be
  /// two pure-overhead memsets.
  explicit SortedKeys(std::span<const double> values)
      : n_(values.size()),
        a_(new std::uint64_t[n_]),
        b_(new std::uint64_t[n_]) {
    std::uint64_t* src = a_.get();
    std::uint64_t* dst = b_.get();
    for (std::size_t i = 0; i < n_; ++i) src[i] = order_key(values[i]);
    std::array<std::array<std::uint32_t, 256>, 8> hist{};
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint64_t k = src[i];
      for (std::size_t d = 0; d < 8; ++d) ++hist[d][(k >> (8 * d)) & 255];
    }
    for (std::size_t d = 0; d < 8; ++d) {
      const auto& h = hist[d];
      const std::size_t shift = 8 * d;
      // A digit position where every key agrees changes nothing.
      if (h[(src[0] >> shift) & 255] == n_) continue;
      std::array<std::uint32_t, 256> offset;
      std::uint32_t sum = 0;
      for (std::size_t j = 0; j < 256; ++j) {
        offset[j] = sum;
        sum += h[j];
      }
      for (std::size_t i = 0; i < n_; ++i) {
        dst[offset[(src[i] >> shift) & 255]++] = src[i];
      }
      std::swap(src, dst);
    }
    sorted_ = src;
  }

  /// The i-th smallest sample value.
  double at(std::size_t i) const { return key_to_double(sorted_[i]); }

  /// Same interpolation as percentile_sorted on the sorted doubles; the
  /// key mapping round-trips exactly, so the result is bit-identical.
  double quantile(double q) const {
    const double pos = q * static_cast<double>(n_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, n_ - 1);
    const double frac = pos - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(hi) * frac;
  }

 private:
  std::size_t n_;
  std::unique_ptr<std::uint64_t[]> a_;
  std::unique_ptr<std::uint64_t[]> b_;
  std::uint64_t* sorted_;
};

/// Below this the comparison sort wins on cache residency and the radix
/// machinery's fixed costs dominate (measured crossover ~2k).
constexpr std::size_t kRadixThreshold = 2048;

}  // namespace

double percentile(std::span<const double> values, double q) {
  L3_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  if (values.size() >= kRadixThreshold) return SortedKeys(values).quantile(q);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

double percentile_sorted(std::span<const double> sorted, double q) {
  L3_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile_select(std::span<double> values, double q) {
  L3_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values.front();
  // percentile_sorted() interpolates between the lo-th and (lo+1)-th order
  // statistics. nth_element places the lo-th and leaves only values >= it
  // after it, so the (lo+1)-th is the smallest of that tail.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double hi =
      lo + 1 < values.size() ? *std::min_element(nth + 1, values.end()) : *nth;
  return *nth * (1.0 - frac) + hi * frac;
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
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.mean = mean(values);
  if (values.size() >= kRadixThreshold) {
    const SortedKeys keys(values);
    s.p50 = keys.quantile(0.50);
    s.p90 = keys.quantile(0.90);
    s.p95 = keys.quantile(0.95);
    s.p99 = keys.quantile(0.99);
    s.p999 = keys.quantile(0.999);
    s.max = keys.at(values.size() - 1);
    return s;
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.p50 = percentile_sorted(sorted, 0.50);
  s.p90 = percentile_sorted(sorted, 0.90);
  s.p95 = percentile_sorted(sorted, 0.95);
  s.p99 = percentile_sorted(sorted, 0.99);
  s.p999 = percentile_sorted(sorted, 0.999);
  s.max = sorted.back();
  return s;
}

}  // namespace l3
