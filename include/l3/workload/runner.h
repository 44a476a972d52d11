// The benchmark coordinator for the trace scenarios (§5.1 "TIER Mobility"):
// builds the three-cluster test environment (Frankfurt / Paris / Milan, ≈
// 10 ms RTT between clusters), deploys the trace-replay API workload with
// three replicas per cluster, wires Prometheus scraping and an L3 controller
// in cluster-1, warms up, drives the load generator with the scenario's
// request volume, and reports latency percentiles and success rate.
#pragma once

#include "l3/chaos/fault_plan.h"
#include "l3/common/time.h"
#include "l3/core/controller.h"
#include "l3/lb/c3_policy.h"
#include "l3/lb/l3_policy.h"
#include "l3/obs/recorder.h"
#include "l3/workload/client.h"
#include "l3/workload/scenario.h"

#include <cstdint>
#include <memory>
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
  std::size_t replicas_per_cluster = 3;
  std::size_t replica_concurrency = 256;
  std::size_t replica_queue_capacity = 2048;
  SimDuration wan_one_way = 0.005;  ///< ≈10 ms RTT between clusters
  double wan_jitter_frac = 0.10;
  SimDuration wan_flap_amp = 0.001;
  SimDuration local_one_way = 0.0005;
  SimDuration scrape_interval = 5.0;
  SimDuration propagation_delay = 0.0;
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
  /// Simulator shards for the conservative-lookahead parallel engine
  /// (l3/sim/shard_engine.h). The fig topologies couple the clusters
  /// through the legacy WAN discipline (the return delay is drawn
  /// dest-side on the proxy's stream), so the runner keeps every cluster
  /// on shard 0 and extra shards idle — results are byte-identical for
  /// every value, which the shard-invariance diffs in check.sh pin down.
  /// Real parallel speedup comes from the presampled mega scenario
  /// (l3/workload/mega.h).
  std::size_t shards = 1;

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

/// Runs `repetitions` times with derived seeds and returns all results
/// (the paper repeats each benchmark 2–3 times).
std::vector<RunResult> run_scenario_repeated(const ScenarioTrace& trace,
                                             PolicyKind kind,
                                             const RunnerConfig& config,
                                             int repetitions);

/// Mean P99 (seconds) across repetitions, over all requests.
double mean_p99(const std::vector<RunResult>& results);

/// Mean success rate across repetitions.
double mean_success_rate(const std::vector<RunResult>& results);

/// Mean of an arbitrary percentile accessor across repetitions.
double mean_of(const std::vector<RunResult>& results,
               double (*accessor)(const RunResult&));

}  // namespace l3::workload
