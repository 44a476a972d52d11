// Ablation of fault intensity: sweep l3::chaos::make_random_plan's
// intensity knob on scenario-1 across the three policies. At intensity 0
// the plan is empty (the fault-free baseline); each step up adds more
// crash / brownout / partition / scrape-outage / controller-pause windows
// to the same seed-derived timeline, so every policy faces the identical
// fault schedule at each intensity. Health probing is off — a policy can
// only dodge a faulted backend by reading the scraped metrics.
//
// Expected: success rates degrade with intensity for everyone, but L3
// degrades the slowest (its ranking has a success-rate term); round-robin
// keeps spraying the crashed cluster until the faults end.
#include "bench_util.h"

#include "l3/chaos/fault_plan.h"
#include "l3/exp/runner.h"
#include "l3/workload/scenarios.h"

#include <iostream>
#include <vector>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 2);

  bench::print_header("Ablation", "fault intensity sweep on scenario-1");

  const auto trace = workload::make_scenario1();
  workload::RunnerConfig base;
  base.profile = args.profile;
  base.shards = static_cast<std::size_t>(args.shards);
  if (args.fast) base.duration = 180.0;
  base.health_probe_interval = 0.0;  // failures visible via metrics only
  const double horizon = args.fast ? 180.0 : 600.0;

  const std::vector<double> intensities = {0.0, 0.5, 1.0, 2.0};
  std::vector<exp::ConfigVariant> variants;
  for (const double intensity : intensities) {
    variants.push_back(
        {"intensity=" + fmt_double(intensity, 1),
         [intensity, horizon](workload::RunnerConfig& c) {
           c.faults = chaos::make_random_plan(
               {.horizon = horizon, .intensity = intensity}, /*seed=*/99);
         }});
  }

  auto spec = exp::scenario_grid(
      "ablation-chaos", {trace},
      {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kC3,
       workload::PolicyKind::kL3},
      base, reps, variants);
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"intensity", "policy", "success (%)", "P99 (ms)"});
  for (std::size_t v = 0; v < intensities.size(); ++v) {
    for (std::size_t k = 0; k < spec.policies.size(); ++k) {
      table.add_row({fmt_double(intensities[v], 1), spec.policies[k],
                     fmt_percent(exp::mean_success_rate(grid.at(0, k, v)), 2),
                     fmt_ms(exp::mean_p99(grid.at(0, k, v)))});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected: success degrades with intensity for every "
               "policy; L3 generally degrades the slowest, except where the "
               "plan blinds it (scrape outages, controller pauses).\n";

  exp::Report report("Ablation: fault intensity");
  report.add_grid(spec, results);
  report.add_table("fault-intensity sweep on scenario-1", table);
  bench::finish_report(args, report);
  return 0;
}
