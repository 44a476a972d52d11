// Ablation of the metric pipeline's freshness (§4 "Metric collection"): the
// paper scrapes every 5 s with 10 s query windows and notes that a lower
// scrape interval yields "a measurable improvement" at the cost of
// Prometheus load. Sweep the scrape interval on scenario-4 (the spikiest
// trace, where staleness hurts the most).
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <algorithm>
#include <iostream>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 2);

  bench::print_header("Ablation", "scrape interval / data freshness on "
                                  "scenario-4");

  const auto trace = workload::make_scenario4();
  workload::RunnerConfig base;
  base.profile = args.profile;
  if (args.fast) base.duration = 180.0;

  auto rr_spec =
      exp::scenario_grid("ablation-scrape-rr", {trace},
                         {workload::PolicyKind::kRoundRobin}, base, reps);
  const auto rr_results = exp::run_experiment(rr_spec, {.jobs = args.jobs});
  const exp::ResultGrid rr_grid(rr_spec, rr_results);
  const double rr_p99 = exp::mean_p99(rr_grid.at(0, 0));

  const std::vector<double> intervals = {1.0, 2.5, 5.0, 10.0, 15.0};
  std::vector<exp::ConfigVariant> variants;
  for (const double interval : intervals) {
    variants.push_back({"scrape=" + fmt_double(interval, 1) + "s",
                        [interval](workload::RunnerConfig& c) {
                          c.scrape_interval = interval;
                          // The paper's rule: the window must span at least
                          // two scrape samples.
                          c.controller.query_window = 2.0 * interval;
                          c.controller.control_interval =
                              std::max(5.0, interval);
                        }});
  }

  auto spec =
      exp::scenario_grid("ablation-scrape-interval", {trace},
                         {workload::PolicyKind::kL3}, base, reps, variants);
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"scrape interval (s)", "query window (s)", "L3 P99 (ms)",
               "vs RR (%)"});
  for (std::size_t v = 0; v < intervals.size(); ++v) {
    const double p99 = exp::mean_p99(grid.at(0, 0, v));
    table.add_row({fmt_double(intervals[v], 1),
                   fmt_double(2.0 * intervals[v], 1), fmt_ms(p99),
                   fmt_double(bench::percent_decrease(rr_p99, p99))});
  }
  table.print(std::cout);
  std::cout << "\nround-robin reference P99: " << fmt_ms(rr_p99)
            << " ms\nexpected: fresher data → better tail, with diminishing "
               "returns below the control interval and clear degradation at "
               "15 s (decisions on stale spikes).\n";

  exp::Report report("Ablation: scrape interval");
  report.add_grid(rr_spec, rr_results);
  report.add_grid(spec, results);
  report.add_table("scrape interval sweep on scenario-4", table);
  bench::finish_report(args, report);
  return 0;
}
