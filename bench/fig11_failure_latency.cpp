// Reproduces Figure 11: 99th-percentile latency under the failure scenarios.
//
// The failure scenarios are chaos-based: the traces carry the failure-1/2
// latency profiles with a nearly clean success channel, and the failures
// themselves (replica crashes, WAN partitions/brownouts, scrape outages,
// controller pauses) are injected as first-class simulator events by the
// per-scenario l3::chaos FaultPlans. Health probing is disabled so only the
// scraped metrics can reveal a failed backend — the paper's setting.
//
// Paper values (ms): failure-1 — RR 447.5, C3 364.2, L3 364.9 (C3 and L3
// tie; L3 trades some latency for success rate); failure-2 — RR 117.2,
// C3 84.6, L3 76.2 (L3 −35 % vs RR).
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/scenarios.h"

#include <array>
#include <iostream>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 3);

  bench::print_header("Figure 11", "P99 latency on failure-1 / failure-2");

  workload::RunnerConfig config;
  config.profile = args.profile;
  bench::apply_proxy_cost(config, args);
  if (args.fast) config.duration = 180.0;
  config.health_probe_interval = 0.0;  // failures visible via metrics only

  const std::array<chaos::FaultPlan, 2> plans = {
      workload::failure1_faults(), workload::failure2_faults()};
  auto spec = exp::scenario_grid(
      "fig11",
      {workload::make_failure1_chaos(), workload::make_failure2_chaos()},
      {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kC3,
       workload::PolicyKind::kL3},
      config, reps, {},
      [plans](std::size_t scenario, workload::RunnerConfig& c) {
        c.faults = plans[scenario];
      });
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"scenario", "round-robin P99 (ms)", "C3 P99 (ms)",
               "L3 P99 (ms)", "L3 vs RR (%)"});
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    double p99[3];
    for (std::size_t k = 0; k < 3; ++k) p99[k] = exp::mean_p99(grid.at(s, k));
    table.add_row({spec.scenarios[s], fmt_ms(p99[0]), fmt_ms(p99[1]),
                   fmt_ms(p99[2]),
                   fmt_double(bench::percent_decrease(p99[0], p99[2]))});
  }
  table.print(std::cout);
  std::cout << "\npaper: f1 447.5/364.2/364.9 ms (L3 −18.5 % vs RR); "
               "f2 117.2/84.6/76.2 ms (L3 −35 % vs RR)\n";

  exp::Report report("Figure 11");
  report.add_grid(spec, results);
  report.add_table("P99 per failure scenario and policy", table);
  bench::finish_report(args, report);
  return 0;
}
