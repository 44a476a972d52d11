// Extension bench (§7 future work / §6 "Optimizing for network transfer
// cost"): wrap L3 in the transfer-cost-aware adjuster and sweep the
// latency-vs-cost trade-off coefficient λ. Cross-cluster traffic from
// cluster-1 costs 1 unit per request (cloud egress pricing); local traffic
// is free.
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/lb/cost_aware.h"
#include "l3/lb/l3_policy.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <iostream>
#include <memory>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : 1;

  bench::print_header("Extension",
                      "transfer-cost-aware L3 (λ sweep) on scenario-1");

  auto trace = std::make_shared<const workload::ScenarioTrace>(
      workload::make_scenario1());
  workload::RunnerConfig config;
  config.profile = args.profile;
  if (args.fast) config.duration = 180.0;

  const std::vector<double> lambdas = {0.5, 2.0, 8.0};

  exp::ExperimentSpec spec;
  spec.name = "ablation-cost-aware";
  spec.scenarios = {trace->name()};
  spec.policies = {"L3"};
  for (const double lambda : lambdas) {
    spec.policies.push_back("cost-aware λ=" + fmt_double(lambda, 1));
  }
  spec.repetitions = reps;
  spec.seed = config.seed;
  spec.cell = [trace, config, lambdas](const exp::Cell& cell,
                                       std::uint64_t seed) -> exp::CellData {
    workload::RunnerConfig cell_config = config;
    cell_config.seed = seed;
    if (cell.policy == 0) {
      return workload::run_scenario(*trace, workload::PolicyKind::kL3,
                                    cell_config);
    }
    lb::TransferCostMatrix costs(3);
    for (mesh::ClusterId from = 0; from < 3; ++from) {
      for (mesh::ClusterId to = 0; to < 3; ++to) {
        if (from != to) costs.set(from, to, 1.0);
      }
    }
    auto policy = std::make_unique<lb::CostAwareAdjuster>(
        std::make_unique<lb::L3Policy>(cell_config.l3), costs,
        lb::CostAwareConfig{.lambda = lambdas[cell.policy - 1]});
    return workload::run_scenario_with(*trace, std::move(policy), cell_config);
  };
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"policy", "P99 (ms)", "P50 (ms)", "cross-cluster traffic (%)",
               "egress cost (units/s)"});
  const double duration = config.duration > 0 ? config.duration : 600.0;
  for (std::size_t k = 0; k < spec.policies.size(); ++k) {
    const auto cells = grid.at(0, k);
    const double remote = exp::mean_traffic_share(cells, 1) +
                          exp::mean_traffic_share(cells, 2);
    const double rps =
        exp::mean_of(cells, +[](const workload::RunResult& r) {
          return static_cast<double>(r.requests);
        }) /
        duration;
    table.add_row({spec.policies[k], fmt_ms(exp::mean_p99(cells)),
                   fmt_ms(exp::mean_p50(cells)), fmt_percent(remote),
                   fmt_double(remote * rps, 1)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: λ buys egress savings with a latency price — "
               "traffic concentrates on the free local cluster even when a "
               "remote one is temporarily faster.\n";

  exp::Report report("Extension: cost-aware");
  report.add_grid(spec, results);
  report.add_table("λ sweep on scenario-1", table);
  bench::finish_report(args, report);
  return 0;
}
