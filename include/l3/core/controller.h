// The L3 controller — the C++ equivalent of the paper's Kubernetes operator
// (§4). One instance runs per source cluster (in production "L3 would most
// likely run on all clusters"). Every control interval (5 s) it:
//
//   1. queries the TimeSeriesDb (10 s windows) for each managed
//      TrafficSplit backend: RPS, success rate, P99 of successful-request
//      latency (from histogram buckets) and mean in-flight requests;
//   2. feeds the samples into per-backend EWMA / PeakEWMA filters with the
//      §4 defaults (latency 5 s @ half-life 5 s, success 100 % @ 10 s,
//      RPS 0 @ 10 s, in-flight @ 5 s). Degraded-metrics handling (§4): for
//      data gaps shorter than the staleness threshold a backend's signals
//      freeze at their last filtered value; once the gap reaches the
//      threshold (10 s — measured from the last sample, or from manage()
//      for a backend that never produced one) every tick converges the
//      filters back toward their defaults in small increments;
//   3. hands the filtered signals to the configured LoadBalancingPolicy
//      (L3, C3, round-robin, ...) and pushes the resulting weights to the
//      TrafficSplit.
//
// The controller also exports its internal state (current weights and
// filtered signals) as gauges into a Registry, mirroring the paper's
// Prometheus/OpenTelemetry introspection.
#pragma once

#include "l3/common/time.h"
#include "l3/lb/policy.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/ewma.h"
#include "l3/metrics/tsdb.h"
#include "l3/sim/simulator.h"
#include "l3/trace/journal.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace l3::core {

/// Controller tunables; defaults follow §4 of the paper.
struct ControllerConfig {
  /// Control-loop period (§4: 5 s — balances freshness against Prometheus
  /// and control-plane load).
  SimDuration control_interval = 5.0;
  /// Trailing query window (§4: 10 s so it spans >= 2 scrape samples).
  SimDuration query_window = 10.0;
  /// Which percentile represents tail latency (§3.1: 0.99; 0.98 / 0.999
  /// are supported configurations).
  double quantile = 0.99;
  /// EWMA vs PeakEWMA for the latency signal (§5.2.2).
  metrics::FilterKind latency_filter = metrics::FilterKind::kEwma;

  // EWMA default values (§4).
  double default_latency = 5.0;       ///< 5 s
  double default_success_rate = 1.0;  ///< 100 %
  double default_rps = 0.0;
  double default_inflight = 0.0;

  // EWMA half-lives (§4).
  SimDuration latency_half_life = 5.0;
  SimDuration inflight_half_life = 5.0;
  SimDuration success_half_life = 10.0;
  SimDuration rps_half_life = 10.0;

  /// After this long without retrievable metrics a backend's filters start
  /// converging back to their defaults (§4: "after at least 10 seconds
  /// without any traffic" — the boundary is inclusive, and the clock for a
  /// never-scraped backend starts at manage() time). Below the threshold
  /// signals freeze at their last filtered value.
  SimDuration staleness = 10.0;

  /// Decision-journal capacity in events (0 disables journaling). Each
  /// control tick records one event per managed split.
  std::size_t journal_capacity = 4096;

  /// §7 future work: derive the penalty factor P dynamically from the
  /// observed round-trip latency of FAILED requests instead of a constant.
  /// Effective only when a penalty hook is installed (see below).
  bool dynamic_penalty = false;
  /// Half-life of the failed-request latency filter for dynamic P.
  SimDuration penalty_half_life = 30.0;
};

/// Filtered per-backend controller state, exposed for introspection/tests.
struct BackendStateView {
  std::string dst_cluster;
  double latency_p99 = 0.0;
  double success_rate = 1.0;
  double rps = 0.0;
  double inflight = 0.0;
  std::uint64_t weight = 0;
};

/// Per-split controller state view.
struct SplitStateView {
  std::string service;
  double total_rps_ewma = 0.0;
  double total_rps_last = 0.0;
  std::vector<BackendStateView> backends;
};

/// The per-cluster load-balancing controller.
class L3Controller {
 public:
  /// @param source  the cluster whose outbound TrafficSplits this instance
  ///                manages (and whose registry it reads labels from).
  L3Controller(mesh::Mesh& mesh, metrics::TimeSeriesDb& tsdb,
               mesh::ClusterId source,
               std::unique_ptr<lb::LoadBalancingPolicy> policy,
               ControllerConfig config = {});
  ~L3Controller();
  L3Controller(const L3Controller&) = delete;
  L3Controller& operator=(const L3Controller&) = delete;

  /// Registers one TrafficSplit (must originate from this controller's
  /// source cluster) with the control loop.
  void manage(mesh::TrafficSplit& split);

  /// Registers every TrafficSplit currently existing for the source
  /// cluster. Splits created later need explicit manage() calls.
  void manage_all();

  /// Starts the periodic control loop.
  void start();

  /// Stops the control loop.
  void stop();

  /// Runs one control iteration immediately (tests / manual stepping).
  void tick();

  /// Pauses/resumes weight application without stopping filtering — the
  /// follower mode of the HA deployment (§4: only the leader changes
  /// weights).
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  /// Installs the hook the dynamic-penalty estimator drives: called each
  /// tick with the filtered failed-request latency (seconds). Wire it to
  /// the policy's penalty parameter to enable §7's adaptive P.
  void set_penalty_hook(std::function<void(double)> hook) {
    penalty_hook_ = std::move(hook);
  }

  /// Introspection snapshot of all managed splits.
  std::vector<SplitStateView> snapshot() const;

  lb::LoadBalancingPolicy& policy() { return *policy_; }
  const lb::LoadBalancingPolicy& policy() const { return *policy_; }
  const ControllerConfig& config() const { return config_; }
  std::uint64_t ticks() const { return ticks_; }

  /// The decision journal (empty when journal_capacity == 0).
  const trace::DecisionJournal& journal() const { return journal_; }
  trace::DecisionJournal& journal() { return journal_; }

 private:
  struct BackendRow;
  struct ManagedSplit;

  void tick_split(ManagedSplit& managed);

  mesh::Mesh& mesh_;
  metrics::TimeSeriesDb& tsdb_;
  mesh::ClusterId source_;
  std::unique_ptr<lb::LoadBalancingPolicy> policy_;
  ControllerConfig config_;
  std::vector<std::unique_ptr<ManagedSplit>> managed_;
  trace::DecisionJournal journal_;
  sim::PeriodicHandle task_;
  bool active_ = true;
  std::uint64_t ticks_ = 0;
  std::function<void(double)> penalty_hook_;
};

}  // namespace l3::core
