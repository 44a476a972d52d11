// Ablation of Algorithm 2 in the regime it was designed for (§3.2): a
// sudden RPS surge against tightly-provisioned backends WITH an autoscaler.
// The rate controller spreads the surge across all clusters so no backend
// saturates while new replicas provision; without it, L3 keeps most traffic
// concentrated on its favourite, which queues until the autoscaler catches
// up.
//
// Setup: cluster-1 is the clear favourite (20 ms vs 100 ms) but THIN — one
// replica with 8 slots (≈400 RPS capacity) vs the slow clusters' 32 slots;
// RPS steps 150 → 650 at t = 120 s; the autoscaler needs ~20 s to provision
// a replica. Without Algorithm 2, L3's ≈70 % concentration on the thin
// favourite (≈560 RPS demand vs 400 capacity) builds a queue until the
// autoscaler lands.
#include "bench_util.h"

#include "l3/core/controller.h"
#include "l3/exp/runner.h"
#include "l3/lb/l3_policy.h"
#include "l3/mesh/autoscaler.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/scraper.h"
#include "l3/sim/shard_engine.h"
#include "l3/workload/client.h"
#include "l3/workload/scenario.h"
#include "l3/workload/trace_behavior.h"

#include "l3/obs/recorder.h"

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>

namespace {

struct SurgeResult {
  double p99_surge = 0.0;   // P99 over the surge window (s)
  double p99_steady = 0.0;  // P99 before the surge
  std::uint64_t scale_ups = 0;
};

SurgeResult run(bool rate_control, std::uint64_t seed,
                l3::obs::Recorder* recorder, std::size_t shards) {
  using namespace l3;
  // Inline harness (no workload::runner), so the recorder binds here.
  std::optional<obs::ScopedRecorderBind> recorder_bind;
  if (recorder != nullptr) recorder_bind.emplace(*recorder);
  const SimTime surge_at = 120.0;
  const SimTime end = 300.0;

  workload::ScenarioTrace trace("surge", 3, end);
  for (std::size_t s = 0; s < trace.steps(); ++s) {
    trace.at(0, s) = workload::TracePoint{0.020, 0.060, 1.0};
    trace.at(1, s) = workload::TracePoint{0.100, 0.300, 1.0};
    trace.at(2, s) = workload::TracePoint{0.100, 0.300, 1.0};
    trace.set_rps(s, static_cast<double>(s) < surge_at ? 150.0 : 650.0);
  }

  sim::Simulator sim;
  SplitRng root(seed);
  mesh::Mesh mesh(sim, root.split("mesh"));
  const auto c1 = mesh.add_cluster("cluster-1");
  const auto c2 = mesh.add_cluster("cluster-2");
  const auto c3 = mesh.add_cluster("cluster-3");
  mesh::WanModel::Link wan{.base = 0.005, .jitter_frac = 0.1};
  mesh.wan().set_symmetric(c1, c2, wan);
  mesh.wan().set_symmetric(c1, c3, wan);
  mesh.wan().set_symmetric(c2, c3, wan);

  auto shared = std::make_shared<const workload::ScenarioTrace>(trace);
  mesh::DeploymentConfig thin;   // the fast favourite: ≈400 RPS capacity
  thin.replicas = 1;
  thin.concurrency = 8;
  thin.queue_capacity = 100000;
  mesh::DeploymentConfig wide;   // slow but roomy: ≈320 RPS per cluster
  wide.replicas = 1;
  wide.concurrency = 32;
  wide.queue_capacity = 100000;
  mesh.deploy("api", c1, thin,
              std::make_unique<workload::TraceReplayBehavior>(shared, c1));
  for (auto c : {c2, c3}) {
    mesh.deploy("api", c, wide,
                std::make_unique<workload::TraceReplayBehavior>(shared, c));
  }
  mesh.proxy(c1, "api");

  mesh::Autoscaler::Config as_config;
  as_config.interval = 5.0;
  as_config.provisioning_delay = 20.0;
  as_config.cooldown = 15.0;
  as_config.max_replicas = 8;
  mesh::Autoscaler autoscaler(sim, as_config);
  for (auto c : {c1, c2, c3}) {
    autoscaler.watch(*mesh.find_deployment("api", c));
  }
  autoscaler.start();

  metrics::TimeSeriesDb tsdb;
  metrics::Scraper scraper(sim, tsdb);
  scraper.add_target("cluster-1", mesh.registry(c1));
  scraper.start(5.0);

  lb::L3PolicyConfig policy_config;
  policy_config.rate_control_enabled = rate_control;
  core::L3Controller controller(mesh, tsdb, c1,
                                std::make_unique<lb::L3Policy>(policy_config));
  controller.manage_all();
  controller.start();

  workload::OpenLoopClient client(
      mesh, c1, "api", [&trace](SimTime t) { return trace.rps_at(t); },
      root.split("client"));
  client.start(0.0, end);
  // Same sharded-run shape as workload::run_scenario_with: the topology is
  // RNG-coupled, so all clusters stay on shard 0 and results are
  // byte-identical for every shard count.
  if (shards <= 1) {
    sim.run_until(end + 60.0);
  } else {
    sim::ShardEngine engine(shards);
    engine.set_cluster_owners(
        std::vector<std::size_t>(mesh.clusters().size(), 0));
    engine.run([&](std::size_t shard) {
      if (shard != 0) return;
      sim::ShardRouter& router = engine.router(0);
      router.attach(sim);
      router.run_until(end + 60.0);
    });
  }

  const auto timeline =
      workload::aggregate_timeline(client.records(), 0.0, end, 10.0);
  SurgeResult result;
  std::vector<double> steady, surge;
  for (const auto& bucket : timeline) {
    if (bucket.count == 0) continue;
    if (bucket.start >= 60.0 && bucket.start < surge_at) {
      steady.push_back(bucket.p99);
    } else if (bucket.start >= surge_at && bucket.start < surge_at + 60.0) {
      surge.push_back(bucket.p99);
    }
  }
  result.p99_steady = steady.empty() ? 0.0
                                     : *std::max_element(steady.begin(),
                                                         steady.end());
  result.p99_surge = surge.empty() ? 0.0
                                   : *std::max_element(surge.begin(),
                                                       surge.end());
  result.scale_ups = autoscaler.scale_ups();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 3);

  bench::print_header("Ablation",
                      "rate controller + autoscaler under an RPS surge");

  exp::ExperimentSpec spec;
  spec.name = "ablation-rate-control";
  spec.scenarios = {"surge"};
  spec.policies = {"L3 with Algorithm 2", "L3 without"};
  spec.repetitions = reps;
  spec.seed = 42;
  spec.cell = [profile = args.profile,
               shards = static_cast<std::size_t>(args.shards)](
                  const exp::Cell& cell,
                  std::uint64_t seed) -> exp::CellData {
    std::optional<obs::Recorder> recorder;
    if (profile) recorder.emplace();
    const auto r = run(cell.policy == 0, seed,
                       recorder ? &*recorder : nullptr, shards);
    exp::CellData data;
    data.metrics = {{"p99_steady", r.p99_steady},
                    {"p99_surge", r.p99_surge},
                    {"scale_ups", static_cast<double>(r.scale_ups)}};
    if (recorder) data.run.profile = recorder->profile();
    return data;
  };
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"variant", "steady P99 (ms)", "surge-window worst P99 (ms)",
               "autoscaler scale-ups"});
  for (std::size_t k = 0; k < spec.policies.size(); ++k) {
    const auto cells = grid.at(0, k);
    table.add_row({spec.policies[k],
                   fmt_ms(exp::mean_metric(cells, "p99_steady")),
                   fmt_ms(exp::mean_metric(cells, "p99_surge")),
                   fmt_double(exp::mean_metric(cells, "scale_ups"), 1)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: identical steady-state tails; during the surge "
               "Algorithm 2 spreads load while replicas provision, keeping "
               "the worst 10 s window far below the concentrated variant.\n";

  exp::Report report("Ablation: rate control");
  report.add_grid(spec, results);
  report.add_table("surge response with and without Algorithm 2", table);
  bench::finish_report(args, report);
  return 0;
}
