// Extension bench contrasting the two places latency-aware balancing can
// live (§6 "Optimizing for latency"):
//
//  * in the proxy, per request — Linkerd's PeakEWMA power-of-two-choices
//    ("Beyond Round Robin"), which reacts within a round trip but, as the
//    paper notes, no mesh ships it ACROSS clusters;
//  * in the control plane, per TrafficSplit — the paper's L3, which works
//    on any SMI mesh today but reacts on the 5 s scrape+control loop.
//
// Run both (plus round-robin) on scenario-3 — stable medians, wandering
// tails — to quantify the reaction-speed gap L3 trades for deployability.
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <iostream>
#include <memory>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 2);

  bench::print_header("Extension",
                      "per-request PeakEWMA-P2C vs TrafficSplit-level L3 on "
                      "scenario-3");

  auto trace = std::make_shared<const workload::ScenarioTrace>(
      workload::make_scenario3());
  workload::RunnerConfig base;
  base.profile = args.profile;
  base.shards = static_cast<std::size_t>(args.shards);
  if (args.fast) base.duration = 180.0;

  struct Strategy {
    std::string name;
    std::string granularity;
    workload::PolicyKind kind;
    mesh::RoutingMode routing;
  };
  // Per-request mode decides in the data plane; the control-plane policy is
  // irrelevant, so pair it with round-robin weights.
  auto strategies = std::make_shared<const std::vector<Strategy>>(
      std::vector<Strategy>{
          {"round-robin", "per split (static)",
           workload::PolicyKind::kRoundRobin, mesh::RoutingMode::kWeighted},
          {"L3", "per split / 5 s loop", workload::PolicyKind::kL3,
           mesh::RoutingMode::kWeighted},
          {"PeakEWMA-P2C", "per request", workload::PolicyKind::kRoundRobin,
           mesh::RoutingMode::kPeakEwmaP2C},
      });

  exp::ExperimentSpec spec;
  spec.name = "ablation-per-request";
  spec.scenarios = {trace->name()};
  spec.policies.clear();
  for (const auto& s : *strategies) spec.policies.push_back(s.name);
  spec.repetitions = reps;
  spec.seed = base.seed;
  spec.cell = [trace, base, strategies](const exp::Cell& cell,
                                        std::uint64_t seed) -> exp::CellData {
    const auto& strategy = (*strategies)[cell.policy];
    workload::RunnerConfig config = base;
    config.seed = seed;
    config.routing = strategy.routing;
    return workload::run_scenario(*trace, strategy.kind, config);
  };
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"strategy", "granularity", "P50 (ms)", "P99 (ms)"});
  for (std::size_t k = 0; k < spec.policies.size(); ++k) {
    const auto cells = grid.at(0, k);
    table.add_row({spec.policies[k], (*strategies)[k].granularity,
                   fmt_ms(exp::mean_p50(cells)),
                   fmt_ms(exp::mean_p99(cells))});
  }
  table.print(std::cout);
  std::cout << "\nexpected: per-request balancing reacts within one RTT and "
               "sets the latency floor; L3 recovers most of that gap while "
               "needing only standard SMI TrafficSplits — the paper's "
               "deployability argument.\n";

  exp::Report report("Extension: per-request balancing");
  report.add_grid(spec, results);
  report.add_table("granularity comparison on scenario-3", table);
  bench::finish_report(args, report);
  return 0;
}
