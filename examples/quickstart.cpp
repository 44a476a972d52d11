// Quickstart: build a three-cluster mesh, deploy a replicated service with
// different latency characteristics per cluster, run L3 against round-robin,
// and print what the load balancer did.
//
// This is the smallest end-to-end use of the public API:
//   Simulator → Mesh (clusters, WAN, deployments) → Scraper/TSDB →
//   L3Controller(policy) → OpenLoopClient → summary.
#include "l3/core/controller.h"
#include "l3/lb/l3_policy.h"
#include "l3/lb/policy.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/sim/simulator.h"
#include "l3/workload/client.h"

#include <iostream>
#include <memory>

namespace {

/// Runs a 5-minute experiment and reports client-side latency.
l3::workload::ClientSummary run(std::unique_ptr<l3::lb::LoadBalancingPolicy> policy,
                                std::uint64_t seed,
                                std::vector<double>* traffic_share) {
  using namespace l3;
  using namespace l3::time_literals;

  sim::Simulator sim;
  SplitRng rng(seed);

  // 1. Three clusters, ~10 ms RTT apart.
  mesh::Mesh mesh(sim, rng.split("mesh"));
  const auto frankfurt = mesh.add_cluster("frankfurt", "eu-central-1");
  const auto paris = mesh.add_cluster("paris", "eu-west-3");
  const auto milan = mesh.add_cluster("milan", "eu-south-1");
  mesh::WanModel::Link wan{.base = 5_ms, .jitter_frac = 0.1};
  mesh.wan().set_symmetric(frankfurt, paris, wan);
  mesh.wan().set_symmetric(frankfurt, milan, wan);
  mesh.wan().set_symmetric(paris, milan, wan);

  // 2. One service, replicated everywhere — but Paris is fast (20 ms
  //    median) while Frankfurt and Milan are slow (60/45 ms).
  mesh::DeploymentConfig dc;  // 3 replicas per cluster by default
  mesh.deploy("api", frankfurt, dc,
              std::make_unique<mesh::FixedLatencyBehavior>(60_ms, 250_ms));
  mesh.deploy("api", paris, dc,
              std::make_unique<mesh::FixedLatencyBehavior>(20_ms, 80_ms));
  mesh.deploy("api", milan, dc,
              std::make_unique<mesh::FixedLatencyBehavior>(45_ms, 180_ms));
  mesh.proxy(frankfurt, "api");  // materialise the TrafficSplit

  // 3. Metrics pipeline: Prometheus-style scrape every 5 s.
  // The controller is the store's only reader: keep exactly its window.
  metrics::TimeSeriesDb tsdb(core::ControllerConfig{}.query_window);
  metrics::Scraper scraper(sim, tsdb);
  scraper.add_target("frankfurt", mesh.registry(frankfurt));
  scraper.start(5.0);

  // 4. The controller applying the chosen policy every 5 s.
  core::L3Controller controller(mesh, tsdb, frankfurt, std::move(policy));
  controller.manage_all();
  controller.start();

  // 5. An open-loop client in Frankfurt at 100 RPS for 5 minutes.
  workload::OpenLoopClient client(
      mesh, frankfurt, "api", [](l3::SimTime) { return 100.0; },
      rng.split("client"));
  client.start(0.0, 300.0);
  sim.run_until(330.0);

  // Report: drop the first 60 s as warm-up.
  constexpr l3::SimTime kWarmup = 60.0;
  const auto records = client.records_after(kWarmup);
  if (traffic_share) {
    traffic_share->assign(3, 0.0);
    for (const auto& r : records) (*traffic_share)[r.backend_cluster] += 1.0;
    for (auto& s : *traffic_share) s /= static_cast<double>(records.size());
  }
  return workload::summarize_records(records, kWarmup);
}

}  // namespace

int main() {
  using namespace l3;

  std::cout << "L3 quickstart: one fast cluster (paris), two slow ones\n\n";
  for (const bool use_l3 : {false, true}) {
    std::unique_ptr<lb::LoadBalancingPolicy> policy;
    if (use_l3) {
      policy = std::make_unique<lb::L3Policy>();
    } else {
      policy = std::make_unique<lb::RoundRobinPolicy>();
    }
    const std::string name(policy->name());
    std::vector<double> share;
    const auto summary = run(std::move(policy), 7, &share);
    std::cout << name << ":\n"
              << "  p50 = " << to_ms(summary.latency.p50) << " ms"
              << ", p99 = " << to_ms(summary.latency.p99) << " ms"
              << ", requests = " << summary.count << "\n"
              << "  traffic share: frankfurt=" << share[0]
              << " paris=" << share[1] << " milan=" << share[2] << "\n\n";
  }
  std::cout << "L3 should shift most traffic to paris and cut the tail.\n";
  return 0;
}
