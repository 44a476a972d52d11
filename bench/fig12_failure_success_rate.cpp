// Reproduces Figure 12: success rate under the failure scenarios.
//
// Chaos-based (see fig11): the scenario traces are nearly failure-free and
// the per-scenario l3::chaos FaultPlans inject the actual failures into the
// mesh. With health probing off, a policy keeps its success rate up during
// a fault window only by reading the scraped success-rate signal — which is
// exactly the axis the paper contrasts: L3 ranks on success rate, C3 does
// not, round-robin reads nothing.
//
// Paper values: failure-1 — RR 91.4 %, C3 91.1 %, L3 92.4 % (L3 best; C3
// worst because its ranking has no success-rate term); failure-2 — all
// around 98.5–98.6 % (too little headroom to differ).
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/scenarios.h"

#include <array>
#include <iostream>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 3);

  bench::print_header("Figure 12", "success rate on failure-1 / failure-2");

  workload::RunnerConfig config;
  config.profile = args.profile;
  if (args.fast) config.duration = 180.0;
  config.health_probe_interval = 0.0;  // failures visible via metrics only

  const std::array<chaos::FaultPlan, 2> plans = {
      workload::failure1_faults(), workload::failure2_faults()};
  auto spec = exp::scenario_grid(
      "fig12",
      {workload::make_failure1_chaos(), workload::make_failure2_chaos()},
      {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kC3,
       workload::PolicyKind::kL3},
      config, reps, {},
      [plans](std::size_t scenario, workload::RunnerConfig& c) {
        c.faults = plans[scenario];
      });
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"scenario", "round-robin (%)", "C3 (%)", "L3 (%)"});
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    double sr[3];
    for (std::size_t k = 0; k < 3; ++k) {
      sr[k] = exp::mean_success_rate(grid.at(s, k));
    }
    table.add_row({spec.scenarios[s], fmt_percent(sr[0], 2),
                   fmt_percent(sr[1], 2), fmt_percent(sr[2], 2)});
  }
  table.print(std::cout);
  std::cout << "\npaper: f1 91.4/91.1/92.4 % (L3 highest, C3 lowest); "
               "f2 ~98.6/98.5/98.6 %\n";

  exp::Report report("Figure 12");
  report.add_grid(spec, results);
  report.add_table("success rate per failure scenario and policy", table);
  bench::finish_report(args, report);
  return 0;
}
