#include "l3/workload/runner.h"

#include "l3/chaos/injector.h"
#include "l3/common/assert.h"
#include "l3/lb/l3_policy.h"
#include "l3/lb/locality_policy.h"
#include "l3/lb/policy.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/obs_audit.h"
#include "l3/workload/trace_behavior.h"

#include <algorithm>
#include <memory>
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

namespace {

/// The mesh settings a RunnerConfig carries.
mesh::MeshConfig mesh_config(const RunnerConfig& config) {
  mesh::MeshConfig mc;
  mc.routing = config.routing;
  mc.outlier_detection = config.outlier;
  mc.proxy_cost = config.proxy_cost;
  mc.request_timeout = config.request_timeout;
  mc.health_probe_interval = config.health_probe_interval;
  return mc;
}

}  // namespace

Testbed::Testbed(const RunnerConfig& config,
                 std::span<const mesh::ClusterId> scrape_targets, SimTime end)
    : scrape_interval_(config.scrape_interval),
      start_(config.warmup),
      end_(end),
      recorder_(config.profile ? std::make_unique<obs::Recorder>() : nullptr),
      recorder_bind_(recorder_
                         ? std::make_unique<obs::ScopedRecorderBind>(*recorder_)
                         : nullptr),
      rng_(config.seed),
      mesh_(sim_, rng_.split("mesh"), mesh_config(config)),
      tsdb_(config.controller.query_window),
      scraper_(sim_, tsdb_) {
  mesh_.add_cluster("cluster-1", "eu-central-1");
  mesh_.add_cluster("cluster-2", "eu-west-3");
  mesh_.add_cluster("cluster-3", "eu-south-1");
  const auto [c1, c2, c3] = kTestbedClusters;
  mesh::WanModel::Link link;
  link.base = config.wan_one_way;
  link.flap_amp = 0.001;  // jitter_frac keeps the Link default, 10 %
  mesh_.wan().set_symmetric(c1, c2, link);
  mesh_.wan().set_symmetric(c1, c3, link);
  mesh_.wan().set_symmetric(c2, c3, link);
  for (const mesh::ClusterId c : scrape_targets) {
    scraper_.add_target(mesh_.cluster_names()[c], mesh_.registry(c));
  }
}

void Testbed::start_scraping() { scraper_.start(scrape_interval_); }

void Testbed::run() {
  // The sampler mutates only recorder state, so its extra periodic events
  // leave the simulation's behaviour (RNG streams, request outcomes)
  // untouched.
  sim::PeriodicHandle track_task;
  if (recorder_) {
    track_task = sim_.schedule_every(
        std::max(scrape_interval_, 1.0),
        [this] { recorder_->sample_tracks(sim_.now()); });
  }
  sim_.run_until(end_ + 30.0);
  track_task.cancel();
}

RunResult Testbed::harvest(std::string policy, std::string scenario,
                           std::span<const RequestRecord> records) {
  RunResult result;
  result.policy = std::move(policy);
  result.scenario = std::move(scenario);
  // The records are read in place; the warm-up is filtered as they are.
  result.summary = summarize_records(records, start_);
  result.timeline = aggregate_timeline(records, start_, end_);
  result.requests = result.summary.count;
  // A split's generation counts the weight pushes that changed it.
  for (mesh::ClusterId c = 0; c < mesh_.clusters().size(); ++c) {
    for (const mesh::TrafficSplit* split : mesh_.splits_of_source(c)) {
      result.weight_updates += split->generation();
    }
  }
  // Post-warm-up traffic share per backend cluster and mean attempts.
  result.traffic_share.assign(mesh_.clusters().size(), 0.0);
  if (result.requests > 0) {
    double attempts = 0.0;
    for (const auto& r : records) {
      if (r.sent < start_) continue;
      result.traffic_share[r.backend_cluster] += 1.0;
      attempts += static_cast<double>(r.attempts);
    }
    for (auto& share : result.traffic_share) {
      share /= static_cast<double>(result.requests);
    }
    result.mean_attempts = attempts / static_cast<double>(result.requests);
  }
  if (!recorder_) return result;
  recorder_->sample_tracks(sim_.now());  // close the counter tracks
  result.profile = recorder_->profile();
  // Audit tier: the final exposition of the controller cluster's registry
  // carries the low-cardinality l3_obs_* families.
  metrics::publish_audit(recorder_->snapshot(),
                         mesh_.registry(kTestbedClusters[0]), "cluster-1",
                         result.policy);
  return result;
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

  const SimTime t0 = config.warmup;
  const SimTime t1 = config.warmup + measured;
  const mesh::ClusterId c1 = kTestbedClusters[0];

  Testbed bed(config, std::array{c1}, t1);
  mesh::Mesh& mesh = bed.mesh();

  // Deploy the trace-replay API workload in every cluster.
  auto shared_trace = std::make_shared<const ScenarioTrace>(trace);
  mesh::DeploymentConfig dc;  // three replicas per cluster (§5.1)
  dc.concurrency = 256;
  dc.queue_capacity = 2048;
  const std::string service = "api";
  for (const mesh::ClusterId c : kTestbedClusters) {
    mesh.deploy(service, c, dc,
                std::make_unique<TraceReplayBehavior>(shared_trace, c,
                                                      config.warmup));
  }

  // Materialise the cluster-1 proxy + TrafficSplit before managing it.
  mesh.proxy(c1, service);
  bed.start_scraping();

  // The L3 controller runs in cluster-1, like the paper's setup.
  const std::string policy_label(policy->name());
  core::L3Controller controller(mesh, bed.tsdb(), c1, std::move(policy),
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
  chaos::FaultInjector injector(bed.sim(), mesh);
  injector.set_scraper(&bed.scraper());
  injector.add_controller(&controller);
  if (!config.faults.empty()) injector.arm(config.faults, config.warmup);

  // Load generator in cluster-1 driving the scenario's request volume.
  OpenLoopClient::Config client_config;
  client_config.mode = CallMode::kViaSplit;
  client_config.poisson = config.poisson_arrivals;
  client_config.max_retries = config.client_retries;
  client_config.retry_backoff = config.retry_backoff;
  OpenLoopClient client(
      mesh, c1, service,
      [&trace, t0](SimTime t) { return trace.rps_at(std::max(0.0, t - t0)); },
      bed.rng().split("client"), client_config);
  client.start(0.0, t1);

  bed.run();

  RunResult result = bed.harvest(policy_label, trace.name(), client.records());
  result.proxy_cost_stats = mesh.proxy(c1, service).cost_stats();
  return result;
}

}  // namespace l3::workload
