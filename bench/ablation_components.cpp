// Ablation study of L3's design choices (§3.1/§3.2 and §7 future work),
// run on failure-1 — the scenario where every component matters (latency
// heterogeneity AND failures):
//
//   * full L3 (paper configuration, P = 0.6 s, squared in-flight, P99,
//     EWMA, rate controller on)
//   * without the rate controller (Algorithm 2 off)
//   * without the success-rate penalty (P = 0 — Eq. 3 collapses to L_s)
//   * linear instead of squared (R_i + 1) (§3.1 discusses the trade-off)
//   * tail percentile 0.98 / 0.999 instead of 0.99 (§3.1: configurable)
//   * dynamic penalty factor from failed-request latency (§7)
#include "bench_util.h"

#include "l3/exp/runner.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <iostream>

int main(int argc, char** argv) {
  using namespace l3;
  const auto args = bench::parse_args(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.fast ? 1 : 2);

  bench::print_header("Ablation", "L3 component study on failure-1");

  const auto trace = workload::make_failure1();
  workload::RunnerConfig base;
  base.profile = args.profile;
  base.shards = static_cast<std::size_t>(args.shards);
  if (args.fast) base.duration = 180.0;

  std::vector<exp::ConfigVariant> variants;
  variants.push_back({"L3 (paper config)", {}});
  variants.push_back({"  - rate controller", [](workload::RunnerConfig& c) {
                        c.l3.rate_control_enabled = false;
                      }});
  variants.push_back(
      {"  - success penalty (P=0)",
       [](workload::RunnerConfig& c) { c.l3.weighting.penalty = 0.0; }});
  variants.push_back({"  linear (Ri+1)", [](workload::RunnerConfig& c) {
                        c.l3.weighting.inflight_exponent = 1.0;
                      }});
  variants.push_back(
      {"  P98 instead of P99",
       [](workload::RunnerConfig& c) { c.controller.quantile = 0.98; }});
  variants.push_back(
      {"  P99.9 instead of P99",
       [](workload::RunnerConfig& c) { c.controller.quantile = 0.999; }});
  variants.push_back(
      {"  dynamic penalty (§7)",
       [](workload::RunnerConfig& c) { c.controller.dynamic_penalty = true; }});

  // Round-robin reference for context (its own grid: no point running the
  // policy-independent baseline once per L3 variant).
  auto rr_spec =
      exp::scenario_grid("ablation-components-rr", {trace},
                         {workload::PolicyKind::kRoundRobin}, base, reps);
  const auto rr_results = exp::run_experiment(rr_spec, {.jobs = args.jobs});
  const exp::ResultGrid rr_grid(rr_spec, rr_results);
  const double rr_p99 = exp::mean_p99(rr_grid.at(0, 0));

  auto spec = exp::scenario_grid("ablation-components", {trace},
                                 {workload::PolicyKind::kL3}, base, reps,
                                 variants);
  const auto results = exp::run_experiment(spec, {.jobs = args.jobs});
  const exp::ResultGrid grid(spec, results);

  Table table({"variant", "P99 (ms)", "success (%)", "vs RR (%)"});
  table.add_row({"round-robin (reference)", fmt_ms(rr_p99),
                 fmt_percent(exp::mean_success_rate(rr_grid.at(0, 0)), 2),
                 "0.0"});
  for (std::size_t v = 0; v < spec.variants.size(); ++v) {
    const auto cells = grid.at(0, 0, v);
    const double p99 = exp::mean_p99(cells);
    table.add_row({spec.variants[v], fmt_ms(p99),
                   fmt_percent(exp::mean_success_rate(cells), 2),
                   fmt_double(bench::percent_decrease(rr_p99, p99))});
  }
  table.print(std::cout);
  std::cout << "\nexpected: removing the success penalty costs success rate; "
               "the percentile choice trades reactivity against noise; the "
               "rate controller costs little here (no overload in this "
               "scenario) but see ablation_rate_control for its protective "
               "role.\n";

  exp::Report report("Ablation: components");
  report.add_grid(rr_spec, rr_results);
  report.add_grid(spec, results);
  report.add_table("component study on failure-1", table);
  bench::finish_report(args, report);
  return 0;
}
