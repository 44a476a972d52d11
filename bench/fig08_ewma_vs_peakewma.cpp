// Reproduces Figure 8: round-robin vs L3-with-PeakEWMA vs L3-with-EWMA on
// scenario-4 (the trace with the wildest tail fluctuation), three
// repetitions each.
//
// Paper values (ms): round-robin 805.7, PeakEWMA 590.4, EWMA 577.1 —
// both filters beat round-robin decisively; EWMA edges out PeakEWMA by
// ~2.3 %, which is why the paper uses EWMA everywhere else.
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/scenarios.h"

#include <iostream>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 3);

  bench::print_header("Figure 8", "EWMA vs PeakEWMA on scenario-4");

  workload::RunnerConfig config;
  config.profile = args.profile;
  if (args.fast) config.duration = 180.0;

  auto spec = exp::scenario_grid(
      "fig08", {workload::make_scenario4()},
      {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kL3}, config,
      reps,
      {{"PeakEWMA",
        [](workload::RunnerConfig& c) {
          c.controller.latency_filter = metrics::FilterKind::kPeakEwma;
        }},
       {"EWMA", [](workload::RunnerConfig& c) {
          c.controller.latency_filter = metrics::FilterKind::kEwma;
        }}});
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  // The filter variant is irrelevant for round-robin (no controller input);
  // report its first variant as the baseline.
  const double rr_p99 = exp::mean_p99(grid.at(0, 0, 0));

  Table table({"variant", "P99 (ms)", "vs round-robin (%)"});
  table.add_row({"round-robin", fmt_ms(rr_p99), "0.0"});
  for (std::size_t v = 0; v < spec.variants.size(); ++v) {
    const double p99 = exp::mean_p99(grid.at(0, 1, v));
    table.add_row({"L3 (" + spec.variants[v] + ")", fmt_ms(p99),
                   fmt_double(bench::percent_decrease(rr_p99, p99))});
  }
  table.print(std::cout);
  std::cout << "\npaper: RR 805.7 ms, PeakEWMA 590.4 ms (−26.7 %), EWMA "
               "577.1 ms (−28.4 %)\n";

  exp::Report report("Figure 8");
  report.add_grid(spec, results);
  report.add_table("latency filter comparison", table);
  bench::finish_report(args, report);
  return 0;
}
