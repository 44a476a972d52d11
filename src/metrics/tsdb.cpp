#include "l3/metrics/tsdb.h"

#include "l3/common/assert.h"
#include "l3/common/histogram.h"
#include "l3/obs/recorder.h"

#include <algorithm>
#include <cmath>

namespace l3::metrics {
namespace {

/// First logical index in [0, count) with time_at(i) >= start (times are
/// ordered, so this is a lower bound by binary search).
template <typename GetTime>
std::size_t lower_bound_time(std::size_t count, GetTime time_at,
                             SimTime start) {
  std::size_t lo = 0;
  std::size_t hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (time_at(mid) < start) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First logical index with time_at(i) > now (one past the window end).
template <typename GetTime>
std::size_t upper_bound_time(std::size_t count, GetTime time_at, SimTime now) {
  std::size_t lo = 0;
  std::size_t hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (time_at(mid) <= now) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Locates the window [now - window, now] in a time-ordered sequence of
/// `count` samples. Returns the logical [first, last] index pair, or nullopt
/// if fewer than `min_samples` samples fall inside.
template <typename GetTime>
std::optional<std::pair<std::size_t, std::size_t>> window_span(
    std::size_t count, GetTime time_at, SimDuration window, SimTime now,
    std::size_t min_samples) {
  const std::size_t first = lower_bound_time(count, time_at, now - window);
  const std::size_t end = upper_bound_time(count, time_at, now);
  if (end < first + min_samples) return std::nullopt;
  return std::make_pair(first, end - 1);
}

}  // namespace

TimeSeriesDb::TimeSeriesDb(SimDuration retention) : retention_(retention) {
  // A negative retention would trim the sample just appended; NaN or +inf
  // would never trim at all.
  L3_EXPECTS(std::isfinite(retention) && retention > 0.0);
}

SeriesId TimeSeriesDb::series(std::string_view name) {
  const auto it = scalar_index_.find(name);
  if (it != scalar_index_.end()) return SeriesId(it->second);
  const auto index = static_cast<std::uint32_t>(scalars_.size());
  L3_EXPECTS(index != SeriesId::kInvalid);
  scalars_.push_back(ScalarSeries{std::string(name), {}});
  scalar_index_.emplace(std::string(name), index);
  return SeriesId(index);
}

HistogramId TimeSeriesDb::histogram_series(std::string_view name) {
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return HistogramId(it->second);
  const auto index = static_cast<std::uint32_t>(histograms_.size());
  L3_EXPECTS(index != HistogramId::kInvalid);
  histograms_.push_back(HistoSeries{std::string(name), {}, false, {}, {}});
  histogram_index_.emplace(std::string(name), index);
  return HistogramId(index);
}

SeriesId TimeSeriesDb::find_series(std::string_view name) const {
  const auto it = scalar_index_.find(name);
  return it == scalar_index_.end() ? SeriesId() : SeriesId(it->second);
}

HistogramId TimeSeriesDb::find_histogram_series(std::string_view name) const {
  const auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? HistogramId()
                                      : HistogramId(it->second);
}

void TimeSeriesDb::append(SeriesId id, SimTime t, double value) {
  L3_OBS_SCOPE_SAMPLED(obs_append, kTsdbAppend);
  L3_OBS_COUNT(kTsdbSamples, 1);
  L3_EXPECTS(id.valid() && id.index_ < scalars_.size());
  auto& samples = scalars_[id.index_].samples;
  L3_EXPECTS(samples.empty() || t >= samples.back().t);
  if (samples.empty()) ++nonempty_scalars_;
  samples.push_back({t, value});
  // Trim-on-append: the just-pushed sample (t >= t - retention) survives,
  // so this can never empty the series.
  while (samples.front().t < t - retention_) samples.pop_front();
}

void TimeSeriesDb::set_histogram_bounds(HistogramId id,
                                        std::span<const double> bounds) {
  L3_EXPECTS(id.valid() && id.index_ < histograms_.size());
  auto& series = histograms_[id.index_];
  if (!series.bounds_set) {
    series.bounds.assign(bounds.begin(), bounds.end());
    series.bounds_set = true;
    return;
  }
  L3_EXPECTS(std::equal(series.bounds.begin(), series.bounds.end(),
                        bounds.begin(), bounds.end()));
}

std::span<const double> TimeSeriesDb::histogram_bounds(HistogramId id) const {
  L3_EXPECTS(id.valid() && id.index_ < histograms_.size());
  return histograms_[id.index_].bounds;
}

void TimeSeriesDb::append_histogram(HistogramId id, SimTime t,
                                    std::span<const double> cumulative_counts) {
  L3_OBS_SCOPE_SAMPLED(obs_append, kTsdbAppend);
  L3_OBS_COUNT(kTsdbSamples, 1);
  L3_EXPECTS(id.valid() && id.index_ < histograms_.size());
  auto& series = histograms_[id.index_];
  L3_EXPECTS(series.bounds_set);
  L3_EXPECTS(cumulative_counts.size() == series.bounds.size() + 1);
  L3_EXPECTS(series.times.empty() || t >= series.times.back());
  if (series.times.empty()) ++nonempty_histograms_;
  series.times.push_back(t);
  series.rows.push_back(cumulative_counts);
  while (series.times.front() < t - retention_) {
    series.times.pop_front();
    series.rows.pop_front();
  }
}

void TimeSeriesDb::compact(SimTime now) {
  L3_OBS_SCOPE(obs_compact, kTsdbCompact);
  const SimTime cutoff = now - retention_;
  for (auto& series : scalars_) {
    auto& samples = series.samples;
    if (samples.empty() || samples.front().t >= cutoff) continue;
    while (!samples.empty() && samples.front().t < cutoff) {
      samples.pop_front();
    }
    if (samples.empty()) --nonempty_scalars_;
  }
  for (auto& series : histograms_) {
    auto& times = series.times;
    if (times.empty() || times.front() >= cutoff) continue;
    while (!times.empty() && times.front() < cutoff) {
      times.pop_front();
      series.rows.pop_front();
    }
    if (times.empty()) --nonempty_histograms_;
  }
  L3_OBS_EVENT(kMetrics, kCompact, now, 0,
               static_cast<double>(nonempty_scalars_ + nonempty_histograms_));
}

std::size_t TimeSeriesDb::sample_count(SeriesId id) const {
  if (!id.valid()) return 0;
  L3_EXPECTS(id.index_ < scalars_.size());
  return scalars_[id.index_].samples.size();
}

std::size_t TimeSeriesDb::histogram_sample_count(HistogramId id) const {
  if (!id.valid()) return 0;
  L3_EXPECTS(id.index_ < histograms_.size());
  return histograms_[id.index_].times.size();
}

std::optional<double> TimeSeriesDb::rate(SeriesId id, SimDuration window,
                                         SimTime now) const {
  if (!id.valid()) return std::nullopt;
  L3_EXPECTS(id.index_ < scalars_.size());
  const auto& samples = scalars_[id.index_].samples;
  const auto span = window_span(
      samples.size(), [&](std::size_t i) { return samples[i].t; }, window,
      now, 2);
  if (!span) return std::nullopt;
  const auto& first = samples[span->first];
  const auto& last = samples[span->second];
  const double elapsed = last.t - first.t;
  if (elapsed <= 0.0) return std::nullopt;
  return (last.v - first.v) / elapsed;
}

std::optional<double> TimeSeriesDb::avg(SeriesId id, SimDuration window,
                                        SimTime now) const {
  if (!id.valid()) return std::nullopt;
  L3_EXPECTS(id.index_ < scalars_.size());
  const auto& samples = scalars_[id.index_].samples;
  const auto span = window_span(
      samples.size(), [&](std::size_t i) { return samples[i].t; }, window,
      now, 1);
  if (!span) return std::nullopt;
  // Summed over the in-window samples in time order, NOT kept as a running
  // total updated on append: incremental add/subtract would change the
  // floating-point rounding and break byte-identical outputs. The window
  // holds a handful of samples (10 s / 5 s scrape), so the loop is short.
  double sum = 0.0;
  for (std::size_t i = span->first; i <= span->second; ++i) {
    sum += samples[i].v;
  }
  return sum / static_cast<double>(span->second - span->first + 1);
}

std::optional<double> TimeSeriesDb::last(SeriesId id, SimDuration window,
                                         SimTime now) const {
  if (!id.valid()) return std::nullopt;
  L3_EXPECTS(id.index_ < scalars_.size());
  const auto& samples = scalars_[id.index_].samples;
  const auto span = window_span(
      samples.size(), [&](std::size_t i) { return samples[i].t; }, window,
      now, 1);
  if (!span) return std::nullopt;
  return samples[span->second].v;
}

std::optional<double> TimeSeriesDb::quantile(HistogramId id, double q,
                                             SimDuration window,
                                             SimTime now) const {
  if (!id.valid()) return std::nullopt;
  L3_EXPECTS(id.index_ < histograms_.size());
  const auto& series = histograms_[id.index_];
  const auto& times = series.times;
  const auto span = window_span(
      times.size(), [&](std::size_t i) { return times[i]; }, window, now, 2);
  if (!span) return std::nullopt;
  const std::span<const double> first = series.rows[span->first];
  const std::span<const double> last = series.rows[span->second];
  // Element-wise delta of the window's endpoint rows, exactly as before —
  // only the destination changed from a fresh vector to reused scratch.
  delta_scratch_.resize(last.size());
  for (std::size_t i = 0; i < last.size(); ++i) {
    delta_scratch_[i] = last[i] - first[i];
  }
  if (delta_scratch_.back() <= 0.0) return std::nullopt;  // no requests
  return histogram_quantile(series.bounds, delta_scratch_, q);
}

}  // namespace l3::metrics
