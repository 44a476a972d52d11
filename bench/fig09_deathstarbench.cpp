// Reproduces Figure 9: 99th-percentile end-to-end latency of the
// DeathStarBench hotel-reservation application under round-robin, C3 and
// L3 at 200 RPS with a 100 % success rate.
//
// Paper values (ms): round-robin 93.0, C3 88.3, L3 68.8 — L3 cuts the tail
// by 26 % vs round-robin and 22 % vs C3.
#include "bench_util.h"

#include "l3/dsb/runner.h"
#include "l3/exp/runner.h"

#include <iostream>
#include <vector>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 3);

  bench::print_header("Figure 9",
                      "DeathStarBench hotel-reservation P99, 200 RPS");

  dsb::DsbRunnerConfig config;
  config.profile = args.profile;
  if (args.fast) config.duration = 180.0;

  const std::vector<workload::PolicyKind> kinds = {
      workload::PolicyKind::kRoundRobin, workload::PolicyKind::kC3,
      workload::PolicyKind::kL3};

  exp::ExperimentSpec spec;
  spec.name = "fig09";
  spec.scenarios = {"hotel-reservation"};
  spec.policies.clear();
  for (const auto kind : kinds) {
    spec.policies.emplace_back(workload::policy_name(kind));
  }
  spec.repetitions = reps;
  spec.seed = config.seed;
  spec.cell = [kinds, config](const exp::Cell& cell,
                              std::uint64_t seed) -> exp::CellData {
    dsb::DsbRunnerConfig cell_config = config;
    cell_config.seed = seed;
    return dsb::run_hotel_reservation(kinds[cell.policy], cell_config);
  };
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"algorithm", "P99 (ms)", "P50 (ms)", "mean (ms)",
               "vs round-robin (%)"});
  const double rr_p99 = exp::mean_p99(grid.at(0, 0));
  for (std::size_t k = 0; k < spec.policies.size(); ++k) {
    const auto cells = grid.at(0, k);
    const double p99 = exp::mean_p99(cells);
    table.add_row({spec.policies[k], fmt_ms(p99),
                   fmt_ms(exp::mean_p50(cells)),
                   fmt_ms(exp::mean_latency(cells)),
                   fmt_double(bench::percent_decrease(rr_p99, p99))});
  }
  table.print(std::cout);
  std::cout << "\npaper: RR 93.0 ms, C3 88.3 ms, L3 68.8 ms "
               "(L3 −26 % vs RR, −22 % vs C3)\n";

  exp::Report report("Figure 9");
  report.add_grid(spec, results);
  report.add_table("hotel-reservation P99 per policy", table);
  bench::finish_report(args, report);
  return 0;
}
