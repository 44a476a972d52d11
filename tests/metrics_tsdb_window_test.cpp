// Property tests for the TSDB's window queries. Every rate, avg, last and
// quantile answer must be bit-identical to a brute-force reference kept
// inside the test — all samples in a std::vector, trimmed by the same
// retention rule, the window found by a linear scan, the same arithmetic —
// across randomized schedules of scrape-like appends, retention
// compactions, >10 s scrape gaps and non-monotone query times.
#include "l3/metrics/tsdb.h"

#include "l3/common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace l3::metrics {
namespace {

/// Deterministic 64-bit LCG (MMIX constants) so failures reproduce.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() {
    return static_cast<double>(next() % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

/// Exact (bitwise-value) equality of two optional query results.
void ExpectSame(const std::optional<double>& got,
                const std::optional<double>& want, const char* what,
                double now) {
  ASSERT_EQ(got.has_value(), want.has_value())
      << what << " presence diverged at now=" << now;
  if (got.has_value()) {
    EXPECT_EQ(*got, *want) << what << " value diverged at now=" << now;
  }
}

/// Brute-force model of one series: every retained sample in a vector.
/// Appends and compactions drop samples older than t − retention, exactly
/// as the store promises; queries scan the whole vector for the window.
template <typename Value>
class Reference {
 public:
  struct Sample {
    SimTime t;
    Value v;
  };

  explicit Reference(SimDuration retention) : retention_(retention) {}

  void append(SimTime t, Value v) {
    samples_.push_back({t, std::move(v)});
    compact(t);
  }

  void compact(SimTime now) {
    std::erase_if(samples_, [&](const Sample& s) {
      return s.t < now - retention_;
    });
  }

  /// Samples with now − window <= t <= now, oldest first.
  std::vector<Sample> in_window(SimDuration window, SimTime now) const {
    std::vector<Sample> out;
    for (const Sample& s : samples_) {
      if (s.t >= now - window && s.t <= now) out.push_back(s);
    }
    return out;
  }

 private:
  SimDuration retention_;
  std::vector<Sample> samples_;
};

std::optional<double> ReferenceRate(const Reference<double>& ref,
                                    SimDuration window, SimTime now) {
  const auto in = ref.in_window(window, now);
  if (in.size() < 2) return std::nullopt;
  const double elapsed = in.back().t - in.front().t;
  if (elapsed <= 0.0) return std::nullopt;
  return (in.back().v - in.front().v) / elapsed;
}

std::optional<double> ReferenceAvg(const Reference<double>& ref,
                                   SimDuration window, SimTime now) {
  const auto in = ref.in_window(window, now);
  if (in.empty()) return std::nullopt;
  double sum = 0.0;
  for (const auto& s : in) sum += s.v;
  return sum / static_cast<double>(in.size());
}

std::optional<double> ReferenceLast(const Reference<double>& ref,
                                    SimDuration window, SimTime now) {
  const auto in = ref.in_window(window, now);
  if (in.empty()) return std::nullopt;
  return in.back().v;
}

std::optional<double> ReferenceQuantile(
    const Reference<std::vector<double>>& ref,
    const std::vector<double>& bounds, double q, SimDuration window,
    SimTime now) {
  const auto in = ref.in_window(window, now);
  if (in.size() < 2) return std::nullopt;
  std::vector<double> delta(in.back().v.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = in.back().v[i] - in.front().v[i];
  }
  if (delta.back() <= 0.0) return std::nullopt;
  return histogram_quantile(bounds, delta, q);
}

TEST(TsdbWindowTest, ScalarQueriesMatchBruteForceReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Lcg rng(seed);
    TimeSeriesDb db(30.0);
    Reference<double> ref(30.0);
    const SeriesId id = db.series("c");
    const SimDuration window = 10.0;
    double t = 0.0;
    double value = 0.0;
    double last_now = 0.0;
    int queries = 0;
    int answered = 0;
    for (int step = 0; step < 500; ++step) {
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // scrape-like append (counter pattern: monotone value)
          t += 0.5 + 5.0 * rng.uniform();
          value += 10.0 * rng.uniform();
          db.append(id, t, value);
          ref.append(t, value);
          break;
        }
        case 4: {  // scrape gap longer than the 10 s staleness window
          t += 10.0 + 10.0 * rng.uniform();
          break;
        }
        case 5: {  // retention sweep
          db.compact(t);
          ref.compact(t);
          break;
        }
        default: {  // query batch
          double now = t + rng.uniform();
          if (rng.below(8) == 0) {
            // Non-monotone now: a query may look back past older ones.
            now = std::max(0.0, last_now - 2.0);
          }
          last_now = std::max(last_now, now);
          const auto rate = db.rate(id, window, now);
          ExpectSame(rate, ReferenceRate(ref, window, now), "rate", now);
          ExpectSame(db.avg(id, window, now), ReferenceAvg(ref, window, now),
                     "avg", now);
          ExpectSame(db.last(id, window, now),
                     ReferenceLast(ref, window, now), "last", now);
          ++queries;
          if (rate) ++answered;
        }
      }
    }
    EXPECT_GT(queries, 50);
    // Both answers and empty windows must have been exercised.
    EXPECT_GT(answered, 0);
    EXPECT_LT(answered, queries);
  }
}

TEST(TsdbWindowTest, QuantileMatchesBruteForceReference) {
  const std::vector<double> bounds = {0.1, 0.5, 1.0};
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Lcg rng(seed);
    TimeSeriesDb db(30.0);
    Reference<std::vector<double>> ref(30.0);
    const HistogramId id = db.histogram_series("h");
    db.set_histogram_bounds(id, bounds);
    const SimDuration window = 10.0;
    double t = 0.0;
    std::vector<double> cum(bounds.size() + 1, 0.0);
    double last_now = 0.0;
    int answered = 0;
    for (int step = 0; step < 400; ++step) {
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // cumulative bucket row grows monotonically
          t += 0.5 + 5.0 * rng.uniform();
          for (std::size_t b = 0; b < cum.size(); ++b) {
            cum[b] += static_cast<double>(rng.below(5));
          }
          for (std::size_t b = 1; b < cum.size(); ++b) {
            cum[b] = std::max(cum[b], cum[b - 1]);
          }
          db.append_histogram(id, t, cum);
          ref.append(t, cum);
          break;
        }
        case 4: {
          t += 10.0 + 10.0 * rng.uniform();
          break;
        }
        case 5: {
          db.compact(t);
          ref.compact(t);
          break;
        }
        default: {
          double now = t + rng.uniform();
          if (rng.below(8) == 0) now = std::max(0.0, last_now - 2.0);
          last_now = std::max(last_now, now);
          for (const double q : {0.5, 0.99}) {
            const auto got = db.quantile(id, q, window, now);
            ExpectSame(got, ReferenceQuantile(ref, bounds, q, window, now),
                       "quantile", now);
            if (got) ++answered;
          }
        }
      }
    }
    EXPECT_GT(answered, 0);
  }
}

TEST(TsdbWindowTest, StalenessBoundaryIsInclusive) {
  // A sample at exactly now - window is inside the window.
  TimeSeriesDb db;
  const SeriesId id = db.series("s");
  db.append(id, 5.0, 42.0);
  ASSERT_TRUE(db.last(id, 10.0, 14.0).has_value());
  const auto boundary = db.last(id, 10.0, 15.0);
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(*boundary, 42.0);
  // One step past the boundary the sample has aged out.
  EXPECT_FALSE(db.last(id, 10.0, 15.0 + 1e-9).has_value());
}

TEST(TsdbWindowTest, RetentionEqualToWindowAnswersLikeUnboundedStore) {
  // The runners size retention to the controller's query window. Every
  // query of that window at an append time must then be bit-identical to a
  // store that never forgets: a trim at append time t drops only samples
  // older than t - W, and no later query (now >= t) reads before now - W.
  // Ticks and gaps stay on the interval grid, so most queries find a sample
  // exactly at now - W: any retention shorter than W drops it.
  const SimDuration window = 10.0;
  const std::vector<double> bounds = {0.1, 0.5, 1.0};
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    const SimDuration interval = std::vector<double>{2.0, 2.5, 5.0}[seed % 3];
    Lcg rng(seed);
    TimeSeriesDb kept(window);
    TimeSeriesDb full(1e9);
    const SeriesId kc = kept.series("c");
    const SeriesId kg = kept.series("g");
    const HistogramId kh = kept.histogram_series("h");
    const SeriesId fc = full.series("c");
    const SeriesId fg = full.series("g");
    const HistogramId fh = full.histogram_series("h");
    kept.set_histogram_bounds(kh, bounds);
    full.set_histogram_bounds(fh, bounds);

    double t = 0.0;
    double counter = 0.0;
    std::vector<double> cum(bounds.size() + 1, 0.0);
    bool gauge_paused = false;  // a disabled target: its series goes idle
    int boundary_hits = 0;
    std::vector<double> scrape_times;
    const auto scrape = [&] {
      scrape_times.push_back(t);
      counter += static_cast<double>(rng.below(50));
      for (std::size_t b = 0; b < cum.size(); ++b) {
        cum[b] += static_cast<double>(rng.below(5));
        if (b > 0) cum[b] = std::max(cum[b], cum[b - 1]);
      }
      kept.append(kc, t, counter);
      full.append(fc, t, counter);
      kept.append_histogram(kh, t, cum);
      full.append_histogram(fh, t, cum);
      if (!gauge_paused) {
        const double gauge = 100.0 * rng.uniform();
        kept.append(kg, t, gauge);
        full.append(fg, t, gauge);
      }
    };
    const auto check = [&] {
      const double now = t;
      ExpectSame(kept.rate(kc, window, now), full.rate(fc, window, now),
                 "rate", now);
      ExpectSame(kept.avg(kg, window, now), full.avg(fg, window, now), "avg",
                 now);
      ExpectSame(kept.last(kg, window, now), full.last(fg, window, now),
                 "last", now);
      for (const double q : {0.5, 0.99}) {
        ExpectSame(kept.quantile(kh, q, window, now),
                   full.quantile(fh, q, window, now), "quantile", now);
      }
      if (std::binary_search(scrape_times.begin(), scrape_times.end(),
                             now - window)) {
        ++boundary_hits;  // a sample sits exactly on the window's edge
      }
    };

    for (int step = 0; step < 600; ++step) {
      switch (rng.below(10)) {
        case 0: {  // a second append at the same timestamp
          scrape();
          break;
        }
        case 1: {  // a scrape gap longer than the window
          t += window + interval * static_cast<double>(rng.below(3));
          scrape();
          break;
        }
        case 2: {  // retention sweep, as the scraper does once per scrape
          kept.compact(t);
          full.compact(t);
          break;
        }
        case 3: {
          gauge_paused = !gauge_paused;
          break;
        }
        default: {  // on-grid scrape tick
          t += interval;
          scrape();
        }
      }
      check();
    }
    EXPECT_GT(boundary_hits, 0) << "seed " << seed;

    // Steady state: plain ticks hold one window of samples, and no more.
    gauge_paused = false;
    const auto bound =
        static_cast<std::size_t>(std::ceil(window / interval)) + 1;
    for (int tick = 0; tick < 40; ++tick) {
      t += interval;
      scrape();
      kept.compact(t);
      full.compact(t);
      check();
      if (static_cast<double>(tick) * interval <= window) continue;
      EXPECT_LE(kept.sample_count(kc), bound) << "seed " << seed;
      EXPECT_LE(kept.sample_count(kg), bound) << "seed " << seed;
      EXPECT_LE(kept.histogram_sample_count(kh), bound) << "seed " << seed;
    }
    EXPECT_GT(full.sample_count(fc), 4 * bound);  // the oracle kept it all
  }
}

}  // namespace
}  // namespace l3::metrics
