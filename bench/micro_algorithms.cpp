// Micro-benchmarks (google-benchmark) of the controller's hot paths — the
// §4 "Resource usage" stand-in: the paper reports the L3 operator uses
// <1.5 % of a vCPU; these show the per-tick algorithm costs are trivially
// small (nanoseconds-to-microseconds), consistent with that.
#include "l3/common/histogram.h"
#include "l3/common/rng.h"
#include "l3/lb/c3_policy.h"
#include "l3/lb/l3_policy.h"
#include "l3/lb/rate_control.h"
#include "l3/lb/weighting.h"
#include "l3/metrics/ewma.h"
#include "l3/workload/scenarios.h"
#include "l3/workload/trace_behavior.h"

#include <benchmark/benchmark.h>

namespace {

using namespace l3;

void BM_EwmaObserve(benchmark::State& state) {
  metrics::Ewma ewma(5.0, 5.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.005;
    ewma.observe(0.1, t);
    benchmark::DoNotOptimize(ewma.value());
  }
}
BENCHMARK(BM_EwmaObserve);

void BM_PeakEwmaObserve(benchmark::State& state) {
  metrics::Ewma ewma(5.0, 5.0, 0.0, metrics::FilterKind::kPeakEwma);
  SplitRng rng(1);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.005;
    ewma.observe(rng.uniform(0.05, 0.5), t);
    benchmark::DoNotOptimize(ewma.value());
  }
}
BENCHMARK(BM_PeakEwmaObserve);

void BM_WeightingAlgorithm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<lb::BackendSignals> signals(n);
  for (std::size_t i = 0; i < n; ++i) {
    signals[i].latency_p99 = 0.050 + 0.01 * static_cast<double>(i);
    signals[i].success_rate = 0.99;
    signals[i].rps = 100.0;
    signals[i].inflight = 5.0;
  }
  for (auto _ : state) {
    auto weights = lb::assign_weights(signals);
    benchmark::DoNotOptimize(weights);
  }
}
BENCHMARK(BM_WeightingAlgorithm)->Arg(3)->Arg(16)->Arg(128);

void BM_RateControl(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(n, 1000.0);
  weights.front() = 2000.0;
  for (auto _ : state) {
    auto out = lb::rate_control(weights, 100.0, 130.0);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RateControl)->Arg(3)->Arg(128);

void BM_L3PolicyCompute(benchmark::State& state) {
  lb::L3Policy policy;
  std::vector<mesh::BackendRef> backends(3);
  std::vector<lb::BackendSignals> signals(3);
  for (std::size_t i = 0; i < 3; ++i) {
    backends[i].cluster = static_cast<mesh::ClusterId>(i);
    signals[i].latency_p99 = 0.05 * static_cast<double>(i + 1);
    signals[i].rps = 100.0;
    signals[i].inflight = 4.0;
  }
  lb::PolicyInput input;
  input.backends = backends;
  input.signals = signals;
  input.total_rps_ewma = 300.0;
  input.total_rps_last = 320.0;
  for (auto _ : state) {
    auto weights = policy.compute(input);
    benchmark::DoNotOptimize(weights);
  }
}
BENCHMARK(BM_L3PolicyCompute);

void BM_HistogramRecord(benchmark::State& state) {
  FixedBucketHistogram histo;
  SplitRng rng(2);
  for (auto _ : state) {
    histo.record(rng.lognormal(-3.0, 0.8));
  }
  benchmark::DoNotOptimize(histo.total_count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  FixedBucketHistogram histo;
  SplitRng rng(3);
  for (int i = 0; i < 100000; ++i) histo.record(rng.lognormal(-3.0, 0.8));
  std::vector<double> cumulative(histo.counts().size());
  double running = 0.0;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    running += static_cast<double>(histo.counts()[i]);
    cumulative[i] = running;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        histogram_quantile(histo.bounds(), cumulative, 0.99));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_TraceSample(benchmark::State& state) {
  workload::TracePoint point{0.050, 0.400, 1.0};
  SplitRng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workload::TraceReplayBehavior::sample_latency(point, rng));
  }
}
BENCHMARK(BM_TraceSample);

void BM_ScenarioGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto trace = workload::make_scenario1(42);
    benchmark::DoNotOptimize(trace.steps());
  }
}
BENCHMARK(BM_ScenarioGeneration);

}  // namespace

BENCHMARK_MAIN();
