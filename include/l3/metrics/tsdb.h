// A miniature Prometheus: timestamped sample storage plus the query
// functions L3 uses — `rate()` over a trailing window, gauge averaging,
// and `histogram_quantile()` over bucket-rate vectors. The L3
// controller reads ONLY from here (never from live registries), reproducing
// the 5 s scrape / 10 s window staleness the paper discusses in §4.
//
// Hot-path design: series names are interned once into SeriesId /
// HistogramId handles (TimeSeriesDb::series / histogram_series); the
// scraper and controller cache those ids, so steady-state appends and
// queries do zero string hashing or comparison. Samples live in
// power-of-two ring buffers (SampleRing); histogram bucket rows live in a
// contiguous columnar slab (RowRing) so an append is a row memcpy, not a
// per-sample vector allocation. Histogram appends take an interned id and
// a bounds declaration (set_histogram_bounds) made once; the string-keyed
// scalar append and queries are a thin layer over the interned API.
//
// Window queries binary-search the ring they read for the window's first
// and last samples. The runners size retention to the controller's query
// window, so a ring holds only a handful of samples (3 at a 5 s scrape and
// a 10 s window) and each query is a few comparisons. Queries are pure
// reads: the same store answers the same (window, now) identically in any
// order.
#pragma once

#include "l3/common/time.h"
#include "l3/metrics/sample_ring.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace l3::metrics {

/// Interned handle to one scalar (counter/gauge) series. Cheap to copy;
/// valid for the lifetime of the TimeSeriesDb that issued it.
class SeriesId {
 public:
  SeriesId() = default;
  bool valid() const { return index_ != kInvalid; }
  friend bool operator==(SeriesId a, SeriesId b) {
    return a.index_ == b.index_;
  }

 private:
  friend class TimeSeriesDb;
  explicit SeriesId(std::uint32_t index) : index_(index) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t index_ = kInvalid;
};

/// Interned handle to one histogram series.
class HistogramId {
 public:
  HistogramId() = default;
  bool valid() const { return index_ != kInvalid; }
  friend bool operator==(HistogramId a, HistogramId b) {
    return a.index_ == b.index_;
  }

 private:
  friend class TimeSeriesDb;
  explicit HistogramId(std::uint32_t index) : index_(index) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t index_ = kInvalid;
};

/// Time-series database with per-series retention trimming.
class TimeSeriesDb {
 public:
  /// @param retention  samples older than now − retention are dropped on
  ///                   append and by compact(); finite and positive. The
  ///                   runners pass their controller's query_window: it
  ///                   reads only [now − window, now] at a `now` no earlier
  ///                   than the last append, so nothing it can read is
  ///                   dropped. The 120 s default serves hand-wired stores
  ///                   (examples, tests).
  explicit TimeSeriesDb(SimDuration retention = 120.0);

  // ---- Series interning -------------------------------------------------

  /// Interns `name` as a scalar series and returns its stable handle.
  /// Idempotent: the same name always yields the same id.
  SeriesId series(std::string_view name);

  /// Interns `name` as a histogram series.
  HistogramId histogram_series(std::string_view name);

  /// Looks up a scalar series without creating it.
  SeriesId find_series(std::string_view name) const;

  /// Looks up a histogram series without creating it.
  HistogramId find_histogram_series(std::string_view name) const;

  // ---- Appends ----------------------------------------------------------

  /// Appends a scalar (counter or gauge) sample.
  void append(SeriesId id, SimTime t, double value);
  void append(const std::string& key, SimTime t, double value) {
    append(series(key), t, value);
  }

  /// Declares the bucket bounds of a histogram series: stored on first
  /// call, verified to match on every later one. Idempotent; the scraper
  /// calls this once per plan rebuild so steady-state appends don't carry
  /// (or compare) the bounds vector at all.
  void set_histogram_bounds(HistogramId id, std::span<const double> bounds);

  /// Bounds previously declared for the series (empty if none yet).
  std::span<const double> histogram_bounds(HistogramId id) const;

  /// Appends a histogram sample: the cumulative bucket counts at time t,
  /// one contiguous row of `histogram_bounds(id).size() + 1` values (the
  /// last being the +Inf total). Bounds must have been declared first.
  void append_histogram(HistogramId id, SimTime t,
                        std::span<const double> cumulative_counts);

  // ---- Queries ----------------------------------------------------------

  /// Per-second rate of increase of a counter over [now − window, now].
  /// Needs at least two samples in the window (the paper's reason for the
  /// 10 s window at a 5 s scrape interval); std::nullopt otherwise.
  std::optional<double> rate(SeriesId id, SimDuration window,
                             SimTime now) const;
  std::optional<double> rate(const std::string& key, SimDuration window,
                             SimTime now) const {
    return rate(find_series(key), window, now);
  }

  /// Mean of gauge samples in the window; std::nullopt if none.
  std::optional<double> avg(SeriesId id, SimDuration window,
                            SimTime now) const;
  std::optional<double> avg(const std::string& key, SimDuration window,
                            SimTime now) const {
    return avg(find_series(key), window, now);
  }

  /// Most recent sample value within the window; std::nullopt if none.
  std::optional<double> last(SeriesId id, SimDuration window,
                             SimTime now) const;
  std::optional<double> last(const std::string& key, SimDuration window,
                             SimTime now) const {
    return last(find_series(key), window, now);
  }

  /// Prometheus-style `histogram_quantile(q, rate(buckets[window]))`.
  /// std::nullopt when fewer than two samples exist or no requests were
  /// observed in the window.
  std::optional<double> quantile(HistogramId id, double q, SimDuration window,
                                 SimTime now) const;
  std::optional<double> quantile(const std::string& key, double q,
                                 SimDuration window, SimTime now) const {
    return quantile(find_histogram_series(key), q, window, now);
  }

  // ---- Maintenance / introspection --------------------------------------

  /// Drops every sample older than now − retention. Series only trim
  /// themselves on append, so a series that stops receiving samples
  /// (disabled scrape target, removed backend) would otherwise pin its
  /// stale samples forever; the scraper calls this once per scrape.
  /// Sweeps every series, skipping an already-fresh one with a single
  /// timestamp comparison.
  void compact(SimTime now);

  /// Number of scalar series holding at least one sample. (Interned ids
  /// stay valid forever; a series whose samples all age out no longer
  /// counts here, matching the old erase-on-empty semantics.)
  std::size_t series_count() const { return nonempty_scalars_; }

  /// Number of histogram series holding at least one sample.
  std::size_t histogram_series_count() const { return nonempty_histograms_; }

  /// Stored sample count of one scalar series (0 when absent).
  std::size_t sample_count(SeriesId id) const;
  std::size_t sample_count(const std::string& key) const {
    return sample_count(find_series(key));
  }

  /// Stored sample count of one histogram series (0 when absent).
  std::size_t histogram_sample_count(HistogramId id) const;
  std::size_t histogram_sample_count(const std::string& key) const {
    return histogram_sample_count(find_histogram_series(key));
  }

  SimDuration retention() const { return retention_; }

 private:
  struct ScalarSample {
    SimTime t = 0.0;
    double v = 0.0;
  };
  struct ScalarSeries {
    std::string name;
    SampleRing<ScalarSample> samples;
  };
  /// Columnar histogram series: timestamps in one ring, cumulative bucket
  /// rows in a parallel fixed-width slab ring (kept in lockstep).
  struct HistoSeries {
    std::string name;
    std::vector<double> bounds;
    bool bounds_set = false;
    SampleRing<SimTime> times;
    RowRing rows;
  };

  /// Heterogeneous hashing so string_view lookups don't allocate.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIndex =
      std::unordered_map<std::string, std::uint32_t, StringHash,
                         std::equal_to<>>;


  std::vector<ScalarSeries> scalars_;
  std::vector<HistoSeries> histograms_;
  NameIndex scalar_index_;
  NameIndex histogram_index_;
  /// Reused scratch for quantile bucket deltas (sized to the widest row
  /// queried); avoids a vector allocation per quantile query.
  mutable std::vector<double> delta_scratch_;
  std::size_t nonempty_scalars_ = 0;
  std::size_t nonempty_histograms_ = 0;
  SimDuration retention_;
};

}  // namespace l3::metrics
