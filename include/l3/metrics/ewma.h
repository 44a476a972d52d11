// EWMA and PeakEWMA filters, Equations 1 and 2 of the paper.
//
// Both filters are time-decayed: the blend factor depends on the wall-clock
// gap Δt between samples, E_now = Y·(1 − e^(−Δt/β)) + E_prev·e^(−Δt/β),
// where β is derived from a configured half-life (β = h / ln 2). PeakEWMA
// (Eq. 2) differs by one rule: a sample above the current value replaces it
// outright. One class implements both, selected by a FilterKind at
// construction. A fresh filter reports the default value λ (§4: 5 s for
// latency, 100 % for success rate, 0 for RPS) so that a new backend is not
// flooded before a meaningful baseline exists.
#pragma once

#include "l3/common/assert.h"
#include "l3/common/time.h"

#include <cmath>

namespace l3::metrics {

/// Converts a half-life (seconds) into the decay coefficient β of Eq. 1.
inline double beta_from_half_life(SimDuration half_life) {
  L3_EXPECTS(half_life > 0.0);
  return half_life / std::log(2.0);
}

/// Which filter rule an Ewma applies: Eq. 1, or Eq. 2's PeakEWMA (after
/// Finagle), which jumps to any sample above the current value and decays
/// cautiously below it — fast on latency spikes at the cost of overweighting
/// outliers. The L3 controller's latency signal takes either (§5.2.2
/// compares both).
enum class FilterKind { kEwma, kPeakEwma };

/// Exponentially weighted moving average with time-aware decay (Eq. 1, or
/// Eq. 2 in kPeakEwma mode).
class Ewma {
 public:
  /// @param default_value  λ — the value reported before any sample arrives
  ///                       and the attractor of converge_to_default().
  /// @param half_life      time for an old sample's weight to halve.
  /// @param start_time     timestamp the filter is initialised at; the first
  ///                       sample's Δt is measured from here.
  /// @param kind           kEwma (Eq. 1) or kPeakEwma (Eq. 2).
  Ewma(double default_value, SimDuration half_life, SimTime start_time = 0.0,
       FilterKind kind = FilterKind::kEwma)
      : default_(default_value),
        beta_(beta_from_half_life(half_life)),
        value_(default_value),
        last_time_(start_time),
        kind_(kind) {}

  /// Feeds a sample observed at time `t` (monotonically non-decreasing).
  void observe(double sample, SimTime t) {
    L3_EXPECTS(t >= last_time_);
    if (kind_ == FilterKind::kPeakEwma && sample > value_) {
      value_ = sample;  // Eq. 2 middle case: jump to the peak.
    } else {
      const double decay = std::exp(-(t - last_time_) / beta_);
      value_ = sample * (1.0 - decay) + value_ * decay;
    }
    last_time_ = t;
    has_samples_ = true;
  }

  /// §4: when no metrics can be retrieved, the filter converges toward its
  /// default value in small increments — the same time-decayed blend as
  /// observe(λ), but WITHOUT marking the filter as having samples: a
  /// backend that only ever converged must still report has_samples() ==
  /// false, as no real metric has arrived. Peak mode blends too, without
  /// the jump rule, so a peak decays during quiet periods.
  void converge_to_default(SimTime t) {
    L3_EXPECTS(t >= last_time_);
    const double decay = std::exp(-(t - last_time_) / beta_);
    value_ = default_ * (1.0 - decay) + value_ * decay;
    last_time_ = t;
  }

  /// Current filtered value (λ until the first sample).
  double value() const { return value_; }

  /// Whether any real sample has been observed.
  bool has_samples() const { return has_samples_; }

  double default_value() const { return default_; }
  SimTime last_update() const { return last_time_; }

  /// Forgets all samples and returns to λ.
  void reset(SimTime t) {
    value_ = default_;
    last_time_ = t;
    has_samples_ = false;
  }

 private:
  double default_;
  double beta_;
  double value_;
  SimTime last_time_;
  FilterKind kind_;
  bool has_samples_ = false;
};

}  // namespace l3::metrics
