#include "l3/dsb/runner.h"

#include "l3/workload/client.h"

#include <memory>
#include <vector>

namespace l3::dsb {
namespace {

/// Shared harness for both DSB applications: builds the testbed, deploys
/// the app built from `app_config`, wires the disturber, one controller per
/// cluster (all scraped into one store), drives the local frontend client
/// and summarises the run. `AppT` must be constructible from (mesh,
/// clusters, app_config) and provide deploy(), warm_routes(),
/// load_model() and a kFrontend service name.
template <typename AppT, typename AppConfig>
workload::RunResult run_app(workload::PolicyKind kind,
                            const DsbRunnerConfig& config,
                            const char* scenario_label,
                            const AppConfig& app_config) {
  const std::vector<mesh::ClusterId> clusters(
      workload::kTestbedClusters.begin(), workload::kTestbedClusters.end());
  const SimTime t1 = config.warmup + config.duration;

  // The trace runner's defaults are the paper's test environment.
  workload::RunnerConfig bed_config;
  bed_config.seed = config.seed;
  bed_config.warmup = config.warmup;
  bed_config.profile = config.profile;
  workload::Testbed bed(bed_config, clusters, t1);
  mesh::Mesh& mesh = bed.mesh();

  auto app = std::make_unique<AppT>(mesh, clusters, app_config);
  app->deploy();
  app->warm_routes();

  PerformanceDisturber disturber(bed.sim(), app->load_model(),
                                 config.disturbance,
                                 bed.rng().split("disturber"));
  disturber.start();
  bed.start_scraping();

  // One controller per cluster (production layout, §3).
  std::vector<std::unique_ptr<core::L3Controller>> controllers;
  for (const mesh::ClusterId c : clusters) {
    auto controller = std::make_unique<core::L3Controller>(
        mesh, bed.tsdb(), c, workload::make_policy(kind),
        bed_config.controller);
    controller->manage_all();
    controller->start();
    controllers.push_back(std::move(controller));
  }

  // Constant-throughput client at the cluster-1 frontend (local, §5.1).
  workload::OpenLoopClient::Config client_config;
  client_config.mode = workload::CallMode::kLocalDirect;
  workload::OpenLoopClient client(
      mesh, clusters[0], AppT::kFrontend,
      [rps = config.rps](SimTime) { return rps; }, bed.rng().split("client"),
      client_config);
  client.start(0.0, t1);

  bed.run();

  return bed.harvest(std::string(workload::policy_name(kind)), scenario_label,
                     client.records());
}

}  // namespace

workload::RunResult run_hotel_reservation(workload::PolicyKind kind,
                                          const DsbRunnerConfig& config) {
  return run_app<HotelReservationApp>(kind, config, "hotel-reservation",
                                      HotelAppConfig{});
}

workload::RunResult run_social_network(workload::PolicyKind kind,
                                       const DsbRunnerConfig& config,
                                       const SocialAppConfig& social) {
  return run_app<SocialNetworkApp>(kind, config, "social-network", social);
}

}  // namespace l3::dsb
