// The paper's three-cluster runs (§5.1). The Testbed is the environment
// the trace runner below and the DeathStarBench runner (l3/dsb/runner.h)
// both build on: the Frankfurt / Paris / Milan clusters joined by symmetric
// WAN links (≈ 10 ms RTT), one Prometheus-style store and scraper, the
// optional self-observation recorder, and the post-run drain and harvest.
// The trace runner (§5.1 "TIER Mobility") deploys the trace-replay API
// workload with three replicas per cluster into it, runs an L3 controller
// in cluster-1 fed by scraping cluster-1, warms up, drives the load
// generator with the scenario's request volume, and reports latency
// percentiles and success rate.
//
// A run is one plain Simulator on one thread. The three clusters are
// RNG-coupled through the legacy WAN discipline (the return delay is drawn
// dest-side on the proxy's stream), so they cannot be split across shards;
// sharding is a run_mega capability (MegaConfig::shards, l3/workload/mega.h).
#pragma once

#include "l3/chaos/fault_plan.h"
#include "l3/common/time.h"
#include "l3/core/controller.h"
#include "l3/lb/c3_policy.h"
#include "l3/lb/l3_policy.h"
#include "l3/metrics/scraper.h"
#include "l3/obs/recorder.h"
#include "l3/workload/client.h"
#include "l3/workload/scenario.h"

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace l3::workload {

/// Which load-balancing algorithm a run uses (§5.1 comparison algorithms
/// plus the extra baselines).
enum class PolicyKind {
  kRoundRobin,
  kC3,
  kL3,
  kLocalityFailover,
};

/// Human-readable policy name, matching the paper's figure labels.
std::string_view policy_name(PolicyKind kind);

/// Builds a policy instance from the run options.
std::unique_ptr<lb::LoadBalancingPolicy> make_policy(
    PolicyKind kind, const lb::L3PolicyConfig& l3_config = {},
    const lb::C3PolicyConfig& c3_config = {});

/// Configuration of one trace-scenario run.
struct RunnerConfig {
  std::uint64_t seed = 42;
  /// Warm-up before measurement starts (§5.1: "a short warm-up period to
  /// populate caches and establish baselines for all the internal EWMAs").
  SimDuration warmup = 60.0;
  /// Measured duration; 0 = the scenario's full length.
  SimDuration duration = 0.0;

  // Test environment (§5.1).
  SimDuration wan_one_way = 0.005;  ///< ≈10 ms RTT between clusters
  SimDuration scrape_interval = 5.0;
  bool poisson_arrivals = false;
  /// Client-side retries on failed requests (0 = the paper's setup).
  int client_retries = 0;
  SimDuration retry_backoff = 0.050;
  /// Proxy routing mode (weighted TrafficSplit vs per-request P2C).
  mesh::RoutingMode routing = mesh::RoutingMode::kWeighted;
  /// Envoy-style outlier detection in every proxy (§5.1's circuit breaker).
  mesh::OutlierDetectionConfig outlier;
  /// Data-plane proxy cost model (DESIGN.md §16): per-request sidecar CPU
  /// through a bounded-concurrency service stage plus per-edge connection
  /// pools with mTLS handshake costs. The zero-cost defaults reproduce the
  /// cost-free runner byte-for-byte.
  mesh::ProxyCostConfig proxy_cost;
  /// Client-side request timeout for every proxy (0 disables).
  SimDuration request_timeout = 30.0;
  /// Health-probe interval (0 disables health checking). Chaos benches set
  /// 0 so failures are only visible through metrics, as in the paper.
  SimDuration health_probe_interval = 10.0;
  /// Fault timeline armed against the run, with times relative to
  /// measurement start (the warm-up is applied as the arm offset). Empty =
  /// no faults, reproducing the fault-free runner exactly.
  chaos::FaultPlan faults;
  /// Bind an obs::Recorder for the run: the flight recorder and self-
  /// profiler capture the run and RunResult::profile carries the
  /// deterministic digest. Instrumentation reads thread-local state only —
  /// simulation results are identical with this on or off (and the macros
  /// compile out entirely with L3_OBS=OFF).
  bool profile = false;

  // Algorithm configuration.
  core::ControllerConfig controller;
  lb::L3PolicyConfig l3;
  lb::C3PolicyConfig c3;
};

/// Result of one run.
struct RunResult {
  std::string policy;
  std::string scenario;
  ClientSummary summary;  ///< post-warm-up
  std::vector<TimelineBucket> timeline;
  std::uint64_t requests = 0;
  std::uint64_t weight_updates = 0;
  /// Mean client attempts per request (1.0 when retries are off).
  double mean_attempts = 1.0;
  /// Post-warm-up traffic share per backend cluster (fraction of requests).
  std::vector<double> traffic_share;
  /// Data-plane cost-model accounting of the cluster-1 proxy (handshakes,
  /// pool hits, CPU-stage queueing); all zeros when the model is disabled.
  mesh::ProxyCostStats proxy_cost_stats;
  /// Deterministic self-profile digest (empty unless RunnerConfig::profile).
  obs::ProfileBlock profile;
};

/// The testbed's clusters by id: cluster-1 (eu-central-1, Frankfurt),
/// cluster-2 (eu-west-3, Paris) and cluster-3 (eu-south-1, Milan). The load
/// generator runs in cluster-1.
inline constexpr std::array<mesh::ClusterId, 3> kTestbedClusters{0, 1, 2};

/// One run of the paper's testbed (see the top of this file). Its
/// environment comes from `config`'s seed, profile flag, warm-up, mesh
/// settings (routing, outlier, proxy_cost, request_timeout,
/// health_probe_interval), wan_one_way, scrape_interval and the
/// controller's query window, which sizes the store: the controllers are
/// its only readers. Construction builds the simulator, recorder bind,
/// mesh, clusters, WAN links, store and scraper; the runner then deploys
/// its application, calls start_scraping(), starts its controllers and
/// client, and calls run() and harvest(). That order is the events'
/// tie-break order at equal times, so the outputs depend on it.
class Testbed {
 public:
  /// `scrape_targets` are the clusters whose registries the scraper reads;
  /// `end` is the end of measurement.
  Testbed(const RunnerConfig& config,
          std::span<const mesh::ClusterId> scrape_targets, SimTime end);

  sim::Simulator& sim() { return sim_; }
  /// The run's root random stream; runners split their parts off it.
  SplitRng& rng() { return rng_; }
  mesh::Mesh& mesh() { return mesh_; }
  metrics::TimeSeriesDb& tsdb() { return tsdb_; }
  metrics::Scraper& scraper() { return scraper_; }

  /// Starts the scraper. Call after the application is deployed.
  void start_scraping();
  /// Samples the recorder's counter tracks at the scrape cadence and runs
  /// the simulation to the end of measurement plus a 30 s drain.
  void run();
  /// The run's result: the post-warm-up summary, timeline, traffic share
  /// and mean attempts from the client's `records`, the weight updates
  /// (the sum of the mesh's split generations) and, when profiling, the
  /// self-profile. Profiling also publishes
  /// the audit families into cluster-1's registry under `policy`.
  RunResult harvest(std::string policy, std::string scenario,
                    std::span<const RequestRecord> records);

 private:
  SimDuration scrape_interval_;
  SimTime start_;
  SimTime end_;
  sim::Simulator sim_;
  // Bound before the mesh is built, so the whole run is recorded. The
  // instrumentation reads thread-local state only (no RNG draws, no events),
  // so binding it cannot change simulation results.
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<obs::ScopedRecorderBind> recorder_bind_;
  SplitRng rng_;
  mesh::Mesh mesh_;
  metrics::TimeSeriesDb tsdb_;
  metrics::Scraper scraper_;
};

/// Runs one scenario under one policy. Deterministic in (trace, kind, cfg).
RunResult run_scenario(const ScenarioTrace& trace, PolicyKind kind,
                       const RunnerConfig& config = {});

/// Runs one scenario under an arbitrary policy instance (for decorated or
/// custom policies such as the cost-aware adjuster). When
/// `config.controller.dynamic_penalty` is set and the policy is (or wraps)
/// an L3Policy, the controller's failed-request-latency feedback drives the
/// penalty factor P (§7 future work).
RunResult run_scenario_with(const ScenarioTrace& trace,
                            std::unique_ptr<lb::LoadBalancingPolicy> policy,
                            const RunnerConfig& config = {});

}  // namespace l3::workload
