// Extension bench (§5.2.1): the paper's benchmarks did not retry failed
// requests and note that the penalty factor's latency effect "might not be
// as strong with retries". Enable client-side retries on failure-1 and
// measure how the picture changes: with retries, failures convert into
// latency (extra round trips), so L3's success-rate steering now directly
// buys tail latency.
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <iostream>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 2);

  bench::print_header("Extension", "client retries on failure-1");

  const auto trace = workload::make_failure1();
  workload::RunnerConfig base;
  base.profile = args.profile;
  if (args.fast) base.duration = 180.0;

  const std::vector<int> retry_counts = {0, 2};
  std::vector<exp::ConfigVariant> variants;
  for (const int retries : retry_counts) {
    variants.push_back({"retries=" + std::to_string(retries),
                        [retries](workload::RunnerConfig& c) {
                          c.client_retries = retries;
                          c.retry_backoff = 0.050;
                        }});
  }

  auto spec = exp::scenario_grid(
      "ablation-retries", {trace},
      {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kL3}, base,
      reps, variants);
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"retries", "algorithm", "success (%)", "P50 (ms)", "P99 (ms)",
               "mean attempts"});
  for (std::size_t v = 0; v < retry_counts.size(); ++v) {
    for (std::size_t k = 0; k < spec.policies.size(); ++k) {
      const auto cells = grid.at(0, k, v);
      table.add_row({std::to_string(retry_counts[v]), spec.policies[k],
                     fmt_percent(exp::mean_success_rate(cells), 2),
                     fmt_ms(exp::mean_p50(cells)), fmt_ms(exp::mean_p99(cells)),
                     fmt_double(exp::mean_attempts(cells), 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected: retries push success toward 100 % for both "
               "algorithms but convert failures into latency; L3's advantage "
               "over round-robin grows because avoiding failing backends now "
               "avoids retry round trips too.\n";

  exp::Report report("Extension: client retries");
  report.add_grid(spec, results);
  report.add_table("retries on failure-1", table);
  bench::finish_report(args, report);
  return 0;
}
