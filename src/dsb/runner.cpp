#include "l3/dsb/runner.h"

#include "l3/common/assert.h"
#include "l3/metrics/obs_audit.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/obs/recorder.h"
#include "l3/sim/shard_engine.h"
#include "l3/sim/simulator.h"
#include "l3/workload/client.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

namespace l3::dsb {
namespace {

/// Shared harness for both DSB applications: builds the three-cluster
/// environment, deploys the app via `make_app`, wires the disturber, one
/// scraper and one controller per cluster, drives the local frontend client
/// and summarises the run. `AppT` must provide deploy(), warm_routes(),
/// load_model() and a kFrontend service name.
template <typename AppT, typename MakeApp>
workload::RunResult run_app(workload::PolicyKind kind,
                            const DsbRunnerConfig& config,
                            const char* scenario_label, MakeApp make_app) {
  sim::Simulator sim;

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
  mesh::Mesh mesh(sim, root.split("mesh"), mesh_config);

  const auto c1 = mesh.add_cluster("cluster-1", "eu-central-1");
  const auto c2 = mesh.add_cluster("cluster-2", "eu-west-3");
  const auto c3 = mesh.add_cluster("cluster-3", "eu-south-1");
  mesh::WanModel::Link link;
  link.base = config.wan_one_way;
  link.jitter_frac = config.wan_jitter_frac;
  link.flap_amp = config.wan_flap_amp;
  mesh.wan().set_symmetric(c1, c2, link);
  mesh.wan().set_symmetric(c1, c3, link);
  mesh.wan().set_symmetric(c2, c3, link);

  std::unique_ptr<AppT> app =
      make_app(mesh, std::vector<mesh::ClusterId>{c1, c2, c3},
               root.split("app"));
  app->deploy();
  app->warm_routes();

  PerformanceDisturber disturber(sim, app->load_model(), config.disturbance,
                                 root.split("disturber"));
  disturber.start();

  // One Prometheus + one controller per cluster (production layout).
  metrics::TimeSeriesDb tsdb;
  metrics::Scraper scraper(sim, tsdb);
  for (mesh::ClusterId c : {c1, c2, c3}) {
    scraper.add_target(mesh.cluster_names()[c], mesh.registry(c));
  }
  scraper.start(config.scrape_interval);

  std::vector<std::unique_ptr<core::L3Controller>> controllers;
  for (mesh::ClusterId c : {c1, c2, c3}) {
    auto controller = std::make_unique<core::L3Controller>(
        mesh, tsdb, c, workload::make_policy(kind, config.l3, config.c3),
        config.controller);
    controller->manage_all();
    controller->start();
    controllers.push_back(std::move(controller));
  }

  // Constant-throughput client at the cluster-1 frontend (local, §5.1).
  const SimTime t0 = config.warmup;
  const SimTime t1 = config.warmup + config.duration;
  workload::OpenLoopClient::Config client_config;
  client_config.mode = workload::CallMode::kLocalDirect;
  workload::OpenLoopClient client(
      mesh, c1, AppT::kFrontend, [rps = config.rps](SimTime) { return rps; },
      root.split("client"), client_config);
  client.start(0.0, t1);

  sim::PeriodicHandle track_task;
  if (recorder) {
    track_task = sim.schedule_every(
        std::max(config.scrape_interval, 1.0),
        [&sim, &recorder] { recorder->sample_tracks(sim.now()); });
  }

  // Same sharded-run shape as the trace runner: the topology is RNG-coupled
  // through the legacy WAN discipline, so every cluster stays on shard 0
  // and extra shards idle — byte-identical for every shard count.
  if (config.shards <= 1) {
    sim.run_until(t1 + 30.0);
  } else {
    sim::ShardEngine engine(config.shards);
    engine.set_cluster_owners(
        std::vector<std::size_t>(mesh.clusters().size(), 0));
    engine.run([&](std::size_t shard) {
      if (shard != 0) return;
      sim::ShardRouter& router = engine.router(0);
      router.attach(sim);
      router.run_until(t1 + 30.0);
    });
  }
  track_task.cancel();

  workload::RunResult result;
  result.policy = std::string(workload::policy_name(kind));
  result.scenario = scenario_label;
  const auto records = client.records_after(t0);
  result.summary = workload::summarize_records(records);
  result.timeline = workload::aggregate_timeline(records, t0, t1);
  result.requests = records.size();
  result.weight_updates = mesh.control_plane().updates_applied();
  result.traffic_share.assign(mesh.clusters().size(), 0.0);
  if (recorder) {
    recorder->sample_tracks(sim.now());
    result.profile = recorder->profile();
    metrics::publish_audit(recorder->snapshot(), mesh.registry(c1),
                           "cluster-1", result.policy);
  }
  return result;
}

}  // namespace

workload::RunResult run_hotel_reservation(workload::PolicyKind kind,
                                          const DsbRunnerConfig& config) {
  return run_app<HotelReservationApp>(
      kind, config, "hotel-reservation",
      [&config](mesh::Mesh& mesh, std::vector<mesh::ClusterId> clusters,
                SplitRng rng) {
        return std::make_unique<HotelReservationApp>(mesh, std::move(clusters),
                                                     config.app, rng);
      });
}

std::vector<workload::RunResult> run_hotel_reservation_repeated(
    workload::PolicyKind kind, const DsbRunnerConfig& config,
    int repetitions) {
  L3_EXPECTS(repetitions >= 1);
  std::vector<workload::RunResult> results;
  results.reserve(static_cast<std::size_t>(repetitions));
  for (int i = 0; i < repetitions; ++i) {
    DsbRunnerConfig rep = config;
    rep.seed = config.seed + static_cast<std::uint64_t>(i) * 7919ULL;
    results.push_back(run_hotel_reservation(kind, rep));
  }
  return results;
}

workload::RunResult run_social_network(workload::PolicyKind kind,
                                       const DsbRunnerConfig& config,
                                       const SocialAppConfig& social) {
  return run_app<SocialNetworkApp>(
      kind, config, "social-network",
      [&social](mesh::Mesh& mesh, std::vector<mesh::ClusterId> clusters,
                SplitRng rng) {
        return std::make_unique<SocialNetworkApp>(mesh, std::move(clusters),
                                                  social, rng);
      });
}

}  // namespace l3::dsb
