// Reproduces Figure 10: 99th-percentile latency of round-robin, C3 and L3
// on the five TIER Mobility scenarios (three repetitions each).
//
// Paper values (ms):  scenario-1 459.4/391.2/359.6   scenario-2 115.4/82.4/74.7
//                     scenario-3 513.3/464.9/415.0   scenario-4 563.7/538.0/512.7
//                     scenario-5 116.4/109.2/105.7
// Expected shape: L3 < C3 < round-robin on every scenario, with the largest
// relative gains on scenarios 1–2 and the smallest on scenario 5.
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/scenarios.h"

#include <iostream>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 3);

  bench::print_header("Figure 10",
                      "P99 latency on scenario-1..5, RR vs C3 vs L3");

  workload::RunnerConfig config;
  config.profile = args.profile;
  config.shards = static_cast<std::size_t>(args.shards);
  bench::apply_proxy_cost(config, args);
  if (args.fast) config.duration = 180.0;

  auto spec = exp::scenario_grid(
      "fig10", workload::all_latency_scenarios(),
      {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kC3,
       workload::PolicyKind::kL3},
      config, reps);
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"scenario", "round-robin P99 (ms)", "C3 P99 (ms)",
               "L3 P99 (ms)", "L3 vs RR (%)", "L3 vs C3 (%)"});
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    double p99[3];
    for (std::size_t k = 0; k < 3; ++k) p99[k] = exp::mean_p99(grid.at(s, k));
    table.add_row({spec.scenarios[s], fmt_ms(p99[0]), fmt_ms(p99[1]),
                   fmt_ms(p99[2]),
                   fmt_double(bench::percent_decrease(p99[0], p99[2])),
                   fmt_double(bench::percent_decrease(p99[1], p99[2]))});
  }
  table.print(std::cout);
  std::cout << "\npaper: L3 improves on RR by 21.7/35/19/9/9 % and on C3 by "
               "8/9/11/5/3 % (s1..s5)\n";

  exp::Report report("Figure 10");
  report.add_grid(spec, results);
  report.add_table("P99 per scenario and policy", table);
  bench::finish_report(args, report);
  return 0;
}
