// Extension bench for §5.1's deployment remark: the paper chose nearby EU
// regions so service-latency variability dominates the network delay, and
// notes that for FAR clusters ("locations with a large network delay, e.g.
// from different continents ... a heavy bias for the local cluster") a
// circuit-breaker-based failover triggered by outlier detection could be
// more suitable than continuous re-weighting.
//
// Reproduce that regime: 70 ms one-way inter-cluster delay (≈ transatlantic)
// with failure-1's failure injection, comparing:
//   * round-robin (ignores distance — pays WAN RTT on 2/3 of requests)
//   * L3 (latency-aware: biases local, shifts on failures)
//   * locality-failover (all local until the local backend fails)
//   * round-robin + outlier-detection circuit breaker
//   * locality-failover + outlier detection (the paper's suggestion)
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
                      "far clusters (70 ms one-way WAN) on failure-1");

  auto trace = std::make_shared<const workload::ScenarioTrace>(
      workload::make_failure1());
  workload::RunnerConfig base;
  base.profile = args.profile;
  base.wan_one_way = 0.070;
  if (args.fast) base.duration = 180.0;

  mesh::OutlierDetectionConfig outlier;
  outlier.enabled = true;
  outlier.failure_threshold = 0.4;
  outlier.min_requests = 20;
  outlier.window = 10.0;
  outlier.ejection_duration = 30.0;

  struct Strategy {
    std::string name;
    workload::PolicyKind kind;
    bool with_outlier;
  };
  auto strategies = std::make_shared<const std::vector<Strategy>>(
      std::vector<Strategy>{
          {"round-robin", workload::PolicyKind::kRoundRobin, false},
          {"round-robin + outlier", workload::PolicyKind::kRoundRobin, true},
          {"L3", workload::PolicyKind::kL3, false},
          {"locality-failover", workload::PolicyKind::kLocalityFailover,
           false},
          {"locality + outlier", workload::PolicyKind::kLocalityFailover,
           true},
      });

  exp::ExperimentSpec spec;
  spec.name = "ablation-far-clusters";
  spec.scenarios = {trace->name()};
  spec.policies.clear();
  for (const auto& s : *strategies) spec.policies.push_back(s.name);
  spec.repetitions = reps;
  spec.seed = base.seed;
  spec.cell = [trace, base, outlier, strategies](
                  const exp::Cell& cell, std::uint64_t seed) -> exp::CellData {
    const auto& strategy = (*strategies)[cell.policy];
    workload::RunnerConfig config = base;
    config.seed = seed;
    if (strategy.with_outlier) config.outlier = outlier;
    return workload::run_scenario(*trace, strategy.kind, config);
  };
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"strategy", "P50 (ms)", "P99 (ms)", "success (%)",
               "local traffic (%)"});
  for (std::size_t k = 0; k < spec.policies.size(); ++k) {
    const auto cells = grid.at(0, k);
    table.add_row({spec.policies[k], fmt_ms(exp::mean_p50(cells)),
                   fmt_ms(exp::mean_p99(cells)),
                   fmt_percent(exp::mean_success_rate(cells), 2),
                   fmt_percent(exp::mean_traffic_share(cells, 0))});
  }
  table.print(std::cout);
  std::cout << "\nexpected: with 140 ms RTT between clusters, anything that "
               "keeps traffic local wins the median; the outlier circuit "
               "breaker recovers the success rate that pure locality "
               "sacrifices during local failures — the trade-off §5.1 "
               "alludes to.\n";

  exp::Report report("Extension: far clusters");
  report.add_grid(spec, results);
  report.add_table("strategies under 70 ms one-way WAN", table);
  bench::finish_report(args, report);
  return 0;
}
