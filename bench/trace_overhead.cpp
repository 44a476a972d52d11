// Tracing hot-path overhead (google-benchmark): drives a small multi-cluster
// mesh through full request lifecycles under three tracer configurations —
//
//   no_tracer   no tracer attached (the seed behaviour);
//   off         a tracer attached with SamplingMode::kOff — the ISSUE's
//               requirement: the hot path must pay only a single branch,
//               no allocations, no virtual dispatch;
//   sampled     ratio 1.0 — every request fully traced (the upper bound).
//
// no_tracer and off must be indistinguishable; sampled shows the cost of
// the spans themselves.
//
// The same split exists for the l3::obs flight recorder: no_recorder vs
// recorder-bound request benchmarks, plus `--obs-gate [MAX_PCT]` — a
// non-google-benchmark mode used by scripts/check.sh that runs a full
// scenario in 61 interleaved pairs with and without the recorder, asserts
// the median per-pair slowdown stays within MAX_PCT (default 5%), and
// asserts every run produces identical simulation results (profiling must
// not perturb the DES).
#include "l3/mesh/mesh.h"
#include "l3/obs/recorder.h"
#include "l3/sim/simulator.h"
#include "l3/trace/tracer.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

namespace {

using namespace l3;

enum class TracerSetup { kNone, kOff, kSampled };

/// One benchmark iteration = one request driven to completion through
/// proxy + WAN + server, on a mesh with timeouts disabled so the event
/// queue drains fully between requests.
void run_requests(benchmark::State& state, TracerSetup setup) {
  sim::Simulator sim;
  SplitRng rng(1);
  mesh::MeshConfig config;
  config.request_timeout = 0.0;        // no pending timeout events
  config.health_probe_interval = 0.0;  // no periodic events
  mesh::Mesh mesh(sim, rng.split("mesh"), config);
  const auto a = mesh.add_cluster("a");
  const auto b = mesh.add_cluster("b");
  mesh.wan().set_symmetric(a, b, {.base = 0.005, .jitter_frac = 0.1});
  mesh::DeploymentConfig dc;
  mesh.deploy("api", a, dc,
              std::make_unique<mesh::FixedLatencyBehavior>(0.020, 0.080));
  mesh.deploy("api", b, dc,
              std::make_unique<mesh::FixedLatencyBehavior>(0.020, 0.080));
  mesh.proxy(a, "api");

  std::optional<trace::Tracer> tracer;
  if (setup != TracerSetup::kNone) {
    trace::TracerConfig tc;
    tc.sampling = setup == TracerSetup::kOff ? trace::SamplingMode::kOff
                                             : trace::SamplingMode::kRatio;
    tc.ratio = 1.0;
    tc.max_traces = 64;
    tracer.emplace(sim, tc);
    mesh.set_tracer(&*tracer);
  }

  for (auto _ : state) {
    trace::SpanContext root{};
    if (tracer && tracer->enabled()) {
      root = tracer->start_trace("api", "a", "api");
    }
    bool done = false;
    mesh.call(a, "api", 0, root, [&](const mesh::Response& response) {
      benchmark::DoNotOptimize(response.success);
      done = true;
    });
    while (sim.step()) {
    }  // drain: the response is delivered before the queue empties
    if (root.sampled()) tracer->end_trace(root);
    benchmark::DoNotOptimize(done);
  }
}

void BM_RequestNoTracer(benchmark::State& state) {
  run_requests(state, TracerSetup::kNone);
}
BENCHMARK(BM_RequestNoTracer);

void BM_RequestTracerOff(benchmark::State& state) {
  run_requests(state, TracerSetup::kOff);
}
BENCHMARK(BM_RequestTracerOff);

void BM_RequestTracerSampled(benchmark::State& state) {
  run_requests(state, TracerSetup::kSampled);
}
BENCHMARK(BM_RequestTracerSampled);

/// The isolated single-branch cost: start_trace on a kOff tracer.
void BM_StartTraceOff(benchmark::State& state) {
  sim::Simulator sim;
  trace::Tracer tracer(sim, trace::TracerConfig{});  // sampling = kOff
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.start_trace("api", "a", "api"));
  }
}
BENCHMARK(BM_StartTraceOff);

/// Request path with no recorder bound: every L3_OBS_* macro pays one
/// thread-local read + null check and nothing else.
void BM_RequestNoRecorder(benchmark::State& state) {
  run_requests(state, TracerSetup::kNone);
}
BENCHMARK(BM_RequestNoRecorder);

/// Request path with the flight recorder bound: counters, rings and sampled
/// scope timers all live. The ratio to BM_RequestNoRecorder is the recorder
/// overhead the --obs-gate mode asserts on at scenario scale.
void BM_RequestRecorder(benchmark::State& state) {
  obs::Recorder recorder;
  obs::ScopedRecorderBind bind(recorder);
  run_requests(state, TracerSetup::kNone);
}
BENCHMARK(BM_RequestRecorder);

/// Isolated cost of one counter increment on a bound shard.
void BM_ObsCountBound(benchmark::State& state) {
  obs::Recorder recorder;
  obs::ScopedRecorderBind bind(recorder);
  for (auto _ : state) {
    L3_OBS_COUNT(kMeshRequests, 1);
  }
}
BENCHMARK(BM_ObsCountBound);

/// Isolated cost of one counter increment with no recorder bound (the
/// common case in production runs: TLS read + branch, nothing else).
void BM_ObsCountUnbound(benchmark::State& state) {
  for (auto _ : state) {
    L3_OBS_COUNT(kMeshRequests, 1);
  }
}
BENCHMARK(BM_ObsCountUnbound);

// ---------------------------------------------------------------------------
// --obs-gate: the check.sh overhead gate. Runs scenario-1 under the L3
// policy in kGatePairs interleaved (plain, recorded) pairs and fails if the
// median per-pair recorder/plain wall ratio is more than `max_pct` above 1,
// if profiling changed the simulation results, or if fewer than six
// subsystems were profiled. Each run is tens of milliseconds, so the host's
// speed drifts between runs; pairing adjacent runs and alternating which
// leg goes first cancels the drift and the warm-up advantage, and the
// median drops a pair that a hiccup hit.

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct GateRun {
  double wall = 0.0;
  std::uint64_t requests = 0;
  double p99 = 0.0;
  std::size_t subsystems = 0;
};

GateRun timed_run(const workload::ScenarioTrace& trace,
                  workload::RunnerConfig config, bool profile) {
  config.profile = profile;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      workload::run_scenario(trace, workload::PolicyKind::kL3, config);
  return {seconds_since(start), result.requests, result.summary.latency.p99,
          result.profile.active_subsystems()};
}

// Enough pairs that the median's own spread on a shared host stays well
// inside the bound (DESIGN.md, "Overhead").
constexpr int kGatePairs = 61;

int run_obs_gate(double max_pct) {
  const auto trace = workload::make_scenario1(1);
  workload::RunnerConfig config;
  config.seed = 42;
  config.warmup = 30.0;
  config.duration = 120.0;

  std::vector<double> ratios;
  GateRun first_plain;
  std::size_t subsystems = 0;
  for (int p = 0; p < kGatePairs; ++p) {
    GateRun plain;
    GateRun recorded;
    if (p % 2 == 0) {
      plain = timed_run(trace, config, false);
      recorded = timed_run(trace, config, true);
    } else {
      recorded = timed_run(trace, config, true);
      plain = timed_run(trace, config, false);
    }
    if (p == 0) first_plain = plain;
    for (const GateRun* run : {&plain, &recorded}) {
      if (run->requests != first_plain.requests ||
          run->p99 != first_plain.p99) {
        std::printf("obs-gate FAIL: profiling perturbed the simulation "
                    "(requests %llu vs %llu, p99 %.17g vs %.17g)\n",
                    static_cast<unsigned long long>(first_plain.requests),
                    static_cast<unsigned long long>(run->requests),
                    first_plain.p99, run->p99);
        return 1;
      }
    }
    subsystems = recorded.subsystems;
    ratios.push_back(recorded.wall / plain.wall);
  }

  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  const double median = ratios.size() % 2 == 1
                            ? ratios[mid]
                            : 0.5 * (ratios[mid - 1] + ratios[mid]);
  const double overhead_pct = (median - 1.0) * 100.0;
  std::printf("obs-gate: %d interleaved pairs, recorder/plain ratio median "
              "%.4f (min %.4f, max %.4f), overhead %+.2f%% (limit %.1f%%), "
              "%zu subsystems profiled\n",
              kGatePairs, median, ratios.front(), ratios.back(), overhead_pct,
              max_pct, subsystems);

  if (subsystems < 6) {
    std::printf("obs-gate FAIL: only %zu subsystems profiled (expected >= 6 "
                "on the full scenario path)\n",
                subsystems);
    return 1;
  }
  if (overhead_pct > max_pct) {
    std::printf("obs-gate FAIL: recorder overhead %.2f%% exceeds %.1f%%\n",
                overhead_pct, max_pct);
    return 1;
  }
  std::printf("obs-gate ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double obs_gate_pct = 0.0;
  bool obs_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs-gate") == 0) {
      obs_gate = true;
      obs_gate_pct = 5.0;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        obs_gate_pct = std::atof(argv[++i]);
      }
    }
  }
  if (obs_gate) return run_obs_gate(obs_gate_pct);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
