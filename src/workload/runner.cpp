#include "l3/workload/runner.h"

#include "l3/chaos/injector.h"
#include "l3/common/assert.h"
#include "l3/lb/l3_policy.h"
#include "l3/lb/locality_policy.h"
#include "l3/lb/policy.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/obs_audit.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/obs/recorder.h"
#include "l3/sim/simulator.h"
#include "l3/workload/trace_behavior.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

namespace l3::workload {

std::string_view policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return "round-robin";
    case PolicyKind::kC3:
      return "C3";
    case PolicyKind::kL3:
      return "L3";
    case PolicyKind::kLocalityFailover:
      return "locality-failover";
  }
  return "unknown";
}

std::unique_ptr<lb::LoadBalancingPolicy> make_policy(
    PolicyKind kind, const lb::L3PolicyConfig& l3_config,
    const lb::C3PolicyConfig& c3_config) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return std::make_unique<lb::RoundRobinPolicy>();
    case PolicyKind::kC3:
      return std::make_unique<lb::C3Policy>(c3_config);
    case PolicyKind::kL3:
      return std::make_unique<lb::L3Policy>(l3_config);
    case PolicyKind::kLocalityFailover:
      return std::make_unique<lb::LocalityFailoverPolicy>();
  }
  return nullptr;
}

RunResult run_scenario(const ScenarioTrace& trace, PolicyKind kind,
                       const RunnerConfig& config) {
  return run_scenario_with(trace, make_policy(kind, config.l3, config.c3),
                           config);
}

RunResult run_scenario_with(const ScenarioTrace& trace,
                            std::unique_ptr<lb::LoadBalancingPolicy> policy,
                            const RunnerConfig& config) {
  L3_EXPECTS(trace.cluster_count() == 3);  // the paper's test environment
  L3_EXPECTS(policy != nullptr);
  const SimDuration measured =
      config.duration > 0.0 ? std::min(config.duration, trace.duration())
                            : trace.duration();

  sim::Simulator sim;

  // Self-observation: bind a flight recorder to this (simulation) thread for
  // the lifetime of the run. The instrumentation macros only read thread-
  // local state — no RNG draws, no event scheduling — so enabling the
  // recorder cannot change simulation results.
  std::optional<obs::Recorder> recorder;
  std::optional<obs::ScopedRecorderBind> recorder_bind;
  if (config.profile) {
    recorder.emplace();
    recorder_bind.emplace(*recorder);
  }

  SplitRng root(config.seed);

  mesh::MeshConfig mesh_config;
  mesh_config.local_delay = config.local_one_way;
  mesh_config.propagation_delay = config.propagation_delay;
  mesh_config.routing = config.routing;
  mesh_config.outlier_detection = config.outlier;
  mesh_config.proxy_cost = config.proxy_cost;
  mesh_config.request_timeout = config.request_timeout;
  mesh_config.health_probe_interval = config.health_probe_interval;
  mesh::Mesh mesh(sim, root.split("mesh"), mesh_config);

  const auto c1 = mesh.add_cluster("cluster-1", "eu-central-1");
  const auto c2 = mesh.add_cluster("cluster-2", "eu-west-3");
  const auto c3 = mesh.add_cluster("cluster-3", "eu-south-1");
  mesh::WanModel::Link wan_link;
  wan_link.base = config.wan_one_way;
  wan_link.jitter_frac = config.wan_jitter_frac;
  wan_link.flap_amp = config.wan_flap_amp;
  mesh.wan().set_symmetric(c1, c2, wan_link);
  mesh.wan().set_symmetric(c1, c3, wan_link);
  mesh.wan().set_symmetric(c2, c3, wan_link);

  // Deploy the trace-replay API workload in every cluster.
  auto shared_trace = std::make_shared<const ScenarioTrace>(trace);
  mesh::DeploymentConfig dc;
  dc.replicas = config.replicas_per_cluster;
  dc.concurrency = config.replica_concurrency;
  dc.queue_capacity = config.replica_queue_capacity;
  const std::string service = "api";
  for (mesh::ClusterId c : {c1, c2, c3}) {
    mesh.deploy(service, c, dc,
                std::make_unique<TraceReplayBehavior>(shared_trace, c,
                                                      config.warmup));
  }

  // Materialise the cluster-1 proxy + TrafficSplit before managing it.
  mesh.proxy(c1, service);

  // Prometheus + L3 controller (in cluster-1, like the paper's setup).
  // The controller is the store's only reader: keep exactly its window.
  metrics::TimeSeriesDb tsdb(config.controller.query_window);
  metrics::Scraper scraper(sim, tsdb);
  scraper.add_target("cluster-1", mesh.registry(c1));
  scraper.start(config.scrape_interval);

  const std::string policy_label(policy->name());
  core::L3Controller controller(mesh, tsdb, c1, std::move(policy),
                                config.controller);
  if (config.controller.dynamic_penalty) {
    if (auto* l3_policy = dynamic_cast<lb::L3Policy*>(&controller.policy())) {
      // §7: derive P from the observed round-trip latency of failed
      // requests instead of the static constant.
      controller.set_penalty_hook([l3_policy](double failure_latency) {
        l3_policy->config().weighting.penalty =
            std::clamp(failure_latency, 0.05, 2.0);
      });
    }
  }
  controller.manage_all();
  controller.start();

  // Fault injection: plan times are relative to measurement start.
  chaos::FaultInjector injector(sim, mesh);
  injector.set_scraper(&scraper);
  injector.add_controller(&controller);
  if (!config.faults.empty()) injector.arm(config.faults, config.warmup);

  // Load generator in cluster-1 driving the scenario's request volume.
  const SimTime t0 = config.warmup;
  const SimTime t1 = config.warmup + measured;
  OpenLoopClient::Config client_config;
  client_config.mode = CallMode::kViaSplit;
  client_config.poisson = config.poisson_arrivals;
  client_config.max_retries = config.client_retries;
  client_config.retry_backoff = config.retry_backoff;
  OpenLoopClient client(
      mesh, c1, service,
      [&trace, t0](SimTime t) { return trace.rps_at(std::max(0.0, t - t0)); },
      root.split("client"), client_config);
  client.start(0.0, t1);

  // Counter-track sampling at the scrape cadence. The sampler mutates only
  // recorder state, so the extra periodic events leave the simulation's
  // behaviour (RNG streams, request outcomes) untouched.
  sim::PeriodicHandle track_task;
  if (recorder) {
    track_task = sim.schedule_every(
        std::max(config.scrape_interval, 1.0),
        [&sim, &recorder] { recorder->sample_tracks(sim.now()); });
  }

  // Run, then drain outstanding responses.
  sim.run_until(t1 + 30.0);
  track_task.cancel();

  RunResult result;
  result.policy = policy_label;
  result.scenario = trace.name();
  // Everything below reads the client's records in place; the warm-up
  // (sent < t0) is filtered as they are read.
  const std::span<const RequestRecord> records = client.records();
  result.summary = summarize_records(records, t0);
  result.timeline = aggregate_timeline(records, t0, t1);
  result.requests = result.summary.count;
  result.weight_updates = mesh.control_plane().updates_applied();
  result.proxy_cost_stats = mesh.proxy(c1, service).cost_stats();
  result.traffic_share.assign(mesh.clusters().size(), 0.0);
  if (result.requests > 0) {
    double attempts = 0.0;
    for (const auto& r : records) {
      if (r.sent < t0) continue;
      result.traffic_share[r.backend_cluster] += 1.0;
      attempts += static_cast<double>(r.attempts);
    }
    for (auto& share : result.traffic_share) {
      share /= static_cast<double>(result.requests);
    }
    result.mean_attempts = attempts / static_cast<double>(result.requests);
  }
  if (recorder) {
    recorder->sample_tracks(sim.now());  // close the counter tracks
    result.profile = recorder->profile();
    // Audit tier: the final exposition of the controller cluster's registry
    // carries the low-cardinality l3_obs_* families.
    metrics::publish_audit(recorder->snapshot(), mesh.registry(c1),
                           "cluster-1", result.policy);
  }
  return result;
}

}  // namespace l3::workload
