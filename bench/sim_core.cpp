// Hot-path benchmark for the event core and the TSDB, tracking the perf
// trajectory of the allocation-free rewrite from this PR onward.
//
// Microbenches plus end-to-end runs:
//   * event core  — a schedule-heavy request-hop workload (every simulated
//     request crosses the queue 5+ times) on the real Simulator;
//   * periodic    — schedule_every churn (scrape/control-tick shape);
//   * tsdb        — scrape-shaped appends + controller-shaped window
//     queries through interned SeriesIds;
//   * scenario    — wall-clock of a full run_scenario() (scenario 1, L3);
//   * sweep       — a fig10-shaped experiment grid through the parallel
//     harness at --jobs 1 vs --jobs 4 (cells/sec and the parallel speedup;
//     on a single-core host the speedup is honestly ~1x);
//   * shards      — the 10k-backend mega scenario through the sharded
//     simulator at --shards 1 vs --shards 4 with pinned shard threads
//     (aggregate req/s plus the shards=4 run's barrier counters: windows,
//     spin-acquired and parked waits, total wait time; the speedup ratio
//     is suppressed, not faked, on boxes with fewer than 4 hardware
//     threads);
//   * control_plane — the mega-shaped scrape→TSDB→manage pipeline in
//     isolation (24 regions × 24-backend splits): columnar scrape series/s
//     and fused-gather manage backends/s, plus the window-cursor hit rate.
//   * proxy_cost  — the data-plane cost model (DESIGN.md §16): the same
//     heterogeneous-latency scenario at zero cost vs a near-saturated
//     1-worker proxy CPU stage. The saturated proxy tier adds a common
//     queueing delay to every backend, compressing L3's weight ratios —
//     reported as the traffic-share skew (max/mean) dropping toward 1.
//
// Results print as a table and are written to BENCH_sim_core.json
// (machine-readable) for longitudinal tracking.
//
// Usage: sim_core [--fast] [--reps N] [--out PATH]
#include "l3/common/rng.h"
#include "l3/core/controller.h"
#include "l3/exp/runner.h"
#include "l3/lb/l3_policy.h"
#include "l3/lb/weighting.h"
#include "l3/mesh/deployment.h"
#include "l3/mesh/mesh.h"
#include "l3/mesh/metric_names.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/sim/simulator.h"
#include "l3/workload/mega.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The request-hop workload: `chains` requests, each crossing the queue
// `hops` times with a capture shape matching the proxy/WAN/client lambdas
// (a couple of pointers plus a small state struct, within EventFn's 48-byte
// inline budget).
struct Hop {
  l3::sim::Simulator* sim;
  std::uint64_t* fired;
  std::uint64_t id;
  std::int32_t remaining;
  double latency_acc;

  void operator()() {
    ++*fired;
    latency_acc += 0.001;
    if (--remaining > 0) {
      sim->schedule_after(0.0005 + 1e-7 * static_cast<double>(id % 97),
                          Hop(*this));
    }
  }
};

std::uint64_t run_hop_workload(l3::sim::Simulator& sim, int chains, int hops) {
  std::uint64_t fired = 0;
  for (int c = 0; c < chains; ++c) {
    const Hop hop{&sim, &fired, static_cast<std::uint64_t>(c), hops, 0.0};
    sim.schedule_after(1e-9 * static_cast<double>(c), hop);
  }
  sim.run_until(1e9);
  return fired;
}

/// Best-of-reps events/s of the request-hop workload.
double bench_event_core(int chains, int hops, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    l3::sim::Simulator sim;
    const auto start = Clock::now();
    const std::uint64_t fired = run_hop_workload(sim, chains, hops);
    best = std::max(best, static_cast<double>(fired) / seconds_since(start));
  }
  return best;
}

double bench_periodic(int tasks, double sim_seconds) {
  l3::sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<l3::sim::PeriodicHandle> handles;
  handles.reserve(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    handles.push_back(sim.schedule_every(
        0.5 + 0.01 * static_cast<double>(i % 13), [&fired] { ++fired; }));
  }
  const auto start = Clock::now();
  sim.run_until(sim_seconds);
  return static_cast<double>(fired) / seconds_since(start);
}

std::vector<std::string> make_series_names(int n) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    names.push_back("request_total{split=api,src=cluster-1,dst=cluster-" +
                    std::to_string(i) + "}");
  }
  return names;
}

/// Scrape-shaped workload: `series` counters appended every 5 s of sim
/// time, `queries_per_append` controller reads of a 10 s window per cycle.
/// Returns appends + queries per second.
double bench_tsdb(int series, int cycles, int queries_per_append) {
  const auto names = make_series_names(series);
  std::uint64_t ops = 0;
  double sink = 0.0;
  l3::metrics::TimeSeriesDb db;
  std::vector<l3::metrics::SeriesId> ids;
  ids.reserve(names.size());
  for (const auto& name : names) ids.push_back(db.series(name));
  const auto start = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    const double now = 5.0 * static_cast<double>(c);
    for (std::size_t s = 0; s < ids.size(); ++s) {
      db.append(ids[s], now, static_cast<double>(c * 100 + s));
      ++ops;
    }
    for (int q = 0; q < queries_per_append; ++q) {
      for (const auto id : ids) {
        if (const auto r = db.rate(id, 10.0, now)) sink += *r;
        ++ops;
      }
    }
    db.compact(now);
  }
  const double ops_per_sec = static_cast<double>(ops) / seconds_since(start);
  if (sink == 42.0) std::cerr << "";  // keep the reads observable
  return ops_per_sec;
}

struct ScenarioResult {
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t requests = 0;
  /// Same scenario with the flight recorder + self-profiler bound.
  double profiled_wall_seconds = 0.0;
  /// (profiled - plain) / plain, best-of-reps both sides, clamped at 0:
  /// when the recorder's true cost is below run-to-run noise the raw
  /// difference can come out slightly negative, which is not a speedup —
  /// it's noise, and a negative "overhead" in the JSON reads as a bug.
  /// The raw value is kept alongside for honesty. The obs overhead gate in
  /// scripts/check.sh asserts the clamped value stays within 5%.
  double obs_overhead_frac = 0.0;
  double obs_overhead_frac_raw = 0.0;
  std::size_t profile_subsystems = 0;
};

ScenarioResult bench_scenario(double duration, int reps) {
  const auto trace = l3::workload::make_scenario1(1);
  l3::workload::RunnerConfig config;
  config.seed = 42;
  config.warmup = 30.0;
  config.duration = duration;
  ScenarioResult best;
  best.wall_seconds = 1e300;
  best.profiled_wall_seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const auto result =
        l3::workload::run_scenario(trace, l3::workload::PolicyKind::kL3,
                                   config);
    const double wall = seconds_since(start);
    if (wall < best.wall_seconds) {
      best.wall_seconds = wall;
      best.sim_seconds = config.warmup + duration + 30.0;  // incl. drain
      best.requests = result.requests;
    }
  }
  l3::workload::RunnerConfig profiled_config = config;
  profiled_config.profile = true;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const auto result = l3::workload::run_scenario(
        trace, l3::workload::PolicyKind::kL3, profiled_config);
    const double wall = seconds_since(start);
    if (wall < best.profiled_wall_seconds) {
      best.profiled_wall_seconds = wall;
      best.profile_subsystems = result.profile.active_subsystems();
    }
  }
  best.obs_overhead_frac_raw =
      (best.profiled_wall_seconds - best.wall_seconds) / best.wall_seconds;
  best.obs_overhead_frac = std::max(0.0, best.obs_overhead_frac_raw);
  return best;
}

struct RequestPathResult {
  int picks = 0;
  double weighted_picks_per_sec = 0.0;
  double p2c_picks_per_sec = 0.0;
  double requests_per_sec = 0.0;  // end-to-end, from the scenario bench
};

/// Backend-selection throughput on a realistic 3-backend proxy: weighted
/// picks exercise the cached cumulative-weight table, P2C picks the cached
/// availability mask + scratch candidate buffer. Pure pick loop — no
/// events, no WAN — so this isolates the picker from the rest of the path.
double bench_picks(l3::mesh::RoutingMode mode, int picks) {
  l3::sim::Simulator sim;
  l3::mesh::MeshConfig config;
  config.local_delay = 0.0;
  config.local_jitter_frac = 0.0;
  config.health_probe_interval = 0.0;
  config.routing = mode;
  l3::mesh::Mesh mesh(sim, l3::SplitRng(42), config);
  const auto c0 = mesh.add_cluster("c0");
  const auto c1 = mesh.add_cluster("c1");
  const auto c2 = mesh.add_cluster("c2");
  for (auto c : {c0, c1, c2}) {
    mesh.deploy("svc", c, {},
                std::make_unique<l3::mesh::FixedLatencyBehavior>(0.010,
                                                                 0.030));
  }
  l3::mesh::Proxy& proxy = mesh.proxy(c0, "svc");
  mesh.find_split(c0, "svc")
      ->set_weights(std::vector<std::uint64_t>{6000, 3000, 1000});
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (int i = 0; i < picks; ++i) sink += proxy.pick_backend();
  const double rate = static_cast<double>(picks) / seconds_since(start);
  if (sink == 1u) std::cerr << "";  // keep the picks observable
  return rate;
}

RequestPathResult bench_request_path(int picks, int reps) {
  RequestPathResult result;
  result.picks = picks;
  for (int r = 0; r < reps; ++r) {
    const double weighted =
        bench_picks(l3::mesh::RoutingMode::kWeighted, picks);
    if (weighted > result.weighted_picks_per_sec) {
      result.weighted_picks_per_sec = weighted;
    }
    const double p2c = bench_picks(l3::mesh::RoutingMode::kPeakEwmaP2C, picks);
    if (p2c > result.p2c_picks_per_sec) result.p2c_picks_per_sec = p2c;
  }
  return result;
}

struct SweepResult {
  std::size_t cells = 0;
  double serial_wall = 0.0;    // --jobs 1
  double parallel_wall = 0.0;  // --jobs 4
  double serial_cells_per_sec = 0.0;
  double parallel_cells_per_sec = 0.0;
  double speedup = 0.0;
  int hardware_jobs = 0;
};

/// Times the fig10-shaped grid (scenarios × RR/C3/L3 × reps) through the
/// experiment harness at jobs=1 and jobs=4. The byte-identity of the two
/// runs' results is covered by exp_runner_test; here we record throughput.
SweepResult bench_sweep(double duration, int grid_reps) {
  auto scenarios = l3::workload::all_latency_scenarios();
  l3::workload::RunnerConfig config;
  config.duration = duration;
  const auto spec = l3::exp::scenario_grid(
      "sweep", std::move(scenarios),
      {l3::workload::PolicyKind::kRoundRobin, l3::workload::PolicyKind::kC3,
       l3::workload::PolicyKind::kL3},
      config, grid_reps);

  SweepResult result;
  result.cells = spec.cell_count();
  result.hardware_jobs = l3::exp::effective_jobs(0);
  {
    const auto start = Clock::now();
    const auto cells = l3::exp::run_experiment(spec, {.jobs = 1});
    result.serial_wall = seconds_since(start);
    if (cells.size() != result.cells) std::cerr << "sweep: short run\n";
  }
  {
    const auto start = Clock::now();
    const auto cells = l3::exp::run_experiment(spec, {.jobs = 4});
    result.parallel_wall = seconds_since(start);
    if (cells.size() != result.cells) std::cerr << "sweep: short run\n";
  }
  result.serial_cells_per_sec =
      static_cast<double>(result.cells) / result.serial_wall;
  result.parallel_cells_per_sec =
      static_cast<double>(result.cells) / result.parallel_wall;
  result.speedup = result.serial_wall / result.parallel_wall;
  return result;
}

struct ShardResult {
  std::size_t regions = 0;
  std::size_t backends = 0;
  std::uint64_t requests = 0;
  double serial_wall = 0.0;   // --shards 1
  double sharded_wall = 0.0;  // --shards 4, pinned
  double serial_reqs_per_sec = 0.0;
  double sharded_reqs_per_sec = 0.0;
  double speedup = 0.0;
  int hardware_jobs = 0;
  l3::sim::BarrierStats barrier;  // summed over shards, fastest shards=4 rep
};

/// Times the 10k-backend mega scenario (l3/workload/mega.h) at shards=1 vs
/// shards=4 with shard threads pinned to CPUs. Digest byte-identity across
/// shard counts is covered by workload_mega_test; here we record aggregate
/// request throughput. Wall time is MegaResult::wall_seconds — the engine
/// run including each shard's state build and teardown, but not the
/// topology set-up before it — best of 3 reps per shard count, the same
/// methodology as the README table, and necessary here because the first
/// pinned run on a shared box pays one-off affinity/page-fault costs the
/// later reps don't.
ShardResult bench_shards(double duration) {
  l3::workload::MegaConfig config;
  config.duration = duration;
  config.pin_threads = true;
  ShardResult result;
  result.regions = config.regions;
  result.backends = config.regions * config.replicas_per_region;
  result.hardware_jobs = l3::exp::effective_jobs(0);
  constexpr int kReps = 3;
  config.shards = 1;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto serial = l3::workload::run_mega(config);
    result.requests = serial.total_requests;
    result.serial_wall = rep == 0
                             ? serial.wall_seconds
                             : std::min(result.serial_wall, serial.wall_seconds);
  }
  config.shards = 4;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto sharded = l3::workload::run_mega(config);
    if (sharded.total_requests != result.requests) {
      std::cerr << "shards: request counts diverged\n";
    }
    if (rep == 0 || sharded.wall_seconds < result.sharded_wall) {
      result.sharded_wall = sharded.wall_seconds;
      result.barrier = sharded.barrier;
    }
  }
  result.serial_reqs_per_sec =
      static_cast<double>(result.requests) / result.serial_wall;
  result.sharded_reqs_per_sec =
      static_cast<double>(result.requests) / result.sharded_wall;
  result.speedup = result.serial_wall / result.sharded_wall;
  return result;
}

struct ControlPlaneResult {
  std::size_t regions = 0;
  std::size_t backends_per_split = 0;
  std::size_t series_per_round = 0;  // series copied by one full scrape round
  int rounds = 0;
  double scrape_wall = 0.0;
  double manage_wall = 0.0;
  double scrape_series_per_sec = 0.0;
  double manage_backends_per_sec = 0.0;
  double cursor_hit_frac = 0.0;
  std::uint64_t plan_rebuilds = 0;
};

/// Times the mega-shaped control plane in isolation (the scrape→TSDB→manage
/// pipeline of the 24×420 scenario, whose per-region metric surface depends
/// on regions × backends, not on replica count): 24 regions, each with its
/// own TSDB + Scraper (one target = the region's registry, carrying the full
/// 24-backend proxy series plus controller introspection gauges) and its own
/// L3Controller managing a 24-backend split. Synthetic per-backend traffic
/// mutates the proxy series between rounds; the timed sections are exactly
/// Scraper::scrape_once (columnar copy) and L3Controller::tick (fused
/// gather + incremental window folds + weighting).
ControlPlaneResult bench_control_plane(int rounds) {
  namespace mn = l3::mesh::metric_names;
  constexpr std::size_t kRegions = 24;
  l3::sim::Simulator sim;
  l3::SplitRng root(20260808);
  l3::mesh::MeshConfig mc;
  mc.health_probe_interval = 0.0;  // no data plane traffic, no probes
  l3::mesh::Mesh mesh(sim, root.split("mesh"), mc);
  for (std::size_t r = 0; r < kRegions; ++r) {
    mesh.add_cluster("region-" + std::to_string(r));
  }
  l3::mesh::DeploymentConfig dc;
  dc.replicas = 1;
  for (std::size_t r = 0; r < kRegions; ++r) {
    mesh.deploy(
        "api", static_cast<l3::mesh::ClusterId>(r), dc,
        std::make_unique<l3::mesh::FixedLatencyBehavior>(0.020, 0.060));
  }

  // Per-region control planes, exactly the mega wiring (minus traffic).
  // Declaration order matters: controllers/scrapers must be destroyed
  // before the TSDBs they reference.
  std::vector<std::unique_ptr<l3::metrics::TimeSeriesDb>> tsdbs;
  std::vector<std::unique_ptr<l3::metrics::Scraper>> scrapers;
  std::vector<std::unique_ptr<l3::core::L3Controller>> controllers;
  for (std::size_t r = 0; r < kRegions; ++r) {
    const auto region = static_cast<l3::mesh::ClusterId>(r);
    mesh.proxy(region, "api");  // materialise proxy + TrafficSplit
    auto tsdb = std::make_unique<l3::metrics::TimeSeriesDb>();
    auto scraper = std::make_unique<l3::metrics::Scraper>(sim, *tsdb);
    scraper->add_target(mesh.cluster_names()[region], mesh.registry(region));
    auto controller = std::make_unique<l3::core::L3Controller>(
        mesh, *tsdb, region, std::make_unique<l3::lb::L3Policy>());
    controller->manage(*mesh.find_split(region, "api"));
    tsdbs.push_back(std::move(tsdb));
    scrapers.push_back(std::move(scraper));
    controllers.push_back(std::move(controller));
  }

  // Synthetic traffic handles: the same registry objects the proxies write
  // (Registry::counter et al. return existing series), one bundle per
  // (source region, backend) pair.
  struct BackendSeries {
    l3::metrics::Counter* requests;
    l3::metrics::Counter* success;
    l3::metrics::Counter* failure;
    l3::metrics::HistogramSeries* latency_success;
    l3::metrics::HistogramSeries* latency_failure;
    l3::metrics::Counter* latency_success_sum;
    l3::metrics::Gauge* inflight;
  };
  std::vector<BackendSeries> handles;
  handles.reserve(kRegions * kRegions);
  const auto& names = mesh.cluster_names();
  for (std::size_t src = 0; src < kRegions; ++src) {
    auto& registry = mesh.registry(static_cast<l3::mesh::ClusterId>(src));
    for (std::size_t dst = 0; dst < kRegions; ++dst) {
      const auto labels = mn::backend_labels("api", names[src], names[dst]);
      BackendSeries h;
      h.requests = &registry.counter(mn::kRequestTotal, labels);
      h.success = &registry.counter(mn::kSuccessTotal, labels);
      h.failure = &registry.counter(mn::kFailureTotal, labels);
      h.latency_success = &registry.histogram(mn::kLatencySuccess, labels);
      h.latency_failure = &registry.histogram(mn::kLatencyFailure, labels);
      h.latency_success_sum =
          &registry.counter(mn::kLatencySuccessSum, labels);
      h.inflight = &registry.gauge(mn::kInflight, labels);
      handles.push_back(h);
    }
  }
  const auto mutate = [&](int k) {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      BackendSeries& h = handles[i];
      const double succ = 9.0 + static_cast<double>(i % 5);
      const double lat =
          0.015 + 0.00125 * static_cast<double>((i + static_cast<std::size_t>(k)) % 8);
      h.requests->add(succ + 1.0);
      h.success->add(succ);
      h.failure->add(1.0);
      h.latency_success->record(lat);
      h.latency_failure->record(2.0 * lat);
      h.latency_success_sum->add(lat * succ);
      h.inflight->set(1.0 + static_cast<double>(k % 7));
    }
  };

  // Warmup rounds build the scrape plans and fill the 10 s query windows so
  // the timed region measures the steady state, not first-touch interning.
  double now = 0.0;
  for (int k = 0; k < 4; ++k) {
    now += 2.5;
    sim.run_until(now);
    mutate(k);
    for (auto& scraper : scrapers) scraper->scrape_once();
    for (auto& controller : controllers) controller->tick();
  }

  ControlPlaneResult result;
  result.regions = kRegions;
  result.backends_per_split = kRegions;
  result.rounds = rounds;
  for (std::size_t r = 0; r < kRegions; ++r) {
    result.series_per_round +=
        mesh.registry(static_cast<l3::mesh::ClusterId>(r)).series_count();
  }
  const std::uint64_t rebuilds_before = [&] {
    std::uint64_t total = 0;
    for (const auto& scraper : scrapers) total += scraper->plan_rebuilds();
    return total;
  }();

  for (int k = 0; k < rounds; ++k) {
    now += 2.5;
    sim.run_until(now);
    mutate(k + 4);
    {
      const auto start = Clock::now();
      for (auto& scraper : scrapers) scraper->scrape_once();
      result.scrape_wall += seconds_since(start);
    }
    {
      const auto start = Clock::now();
      for (auto& controller : controllers) controller->tick();
      result.manage_wall += seconds_since(start);
    }
  }

  for (const auto& scraper : scrapers) {
    result.plan_rebuilds += scraper->plan_rebuilds();
  }
  result.plan_rebuilds -= rebuilds_before;  // rebuilds DURING timed rounds
  std::uint64_t hits = 0;
  std::uint64_t rebuilds = 0;
  for (const auto& tsdb : tsdbs) {
    hits += tsdb->cursor_hits();
    rebuilds += tsdb->cursor_rebuilds();
  }
  result.cursor_hit_frac =
      hits + rebuilds == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + rebuilds);
  result.scrape_series_per_sec =
      static_cast<double>(result.series_per_round) *
      static_cast<double>(rounds) / result.scrape_wall;
  result.manage_backends_per_sec =
      static_cast<double>(kRegions * kRegions) * static_cast<double>(rounds) /
      result.manage_wall;
  return result;
}

struct ProxyCostResult {
  std::uint64_t requests = 0;
  double zero_wall = 0.0;
  double costed_wall = 0.0;
  /// Traffic-share skew (lb::weight_skew: max/mean, 1.0 = uniform) of the
  /// cluster-1 client's post-warm-up traffic.
  double zero_skew = 0.0;
  double costed_skew = 0.0;
  /// (zero_skew - 1) / (costed_skew - 1): how much of the excess over
  /// uniform the saturated proxy tier erased. > 1 = weights flattened.
  double skew_compression = 0.0;
  double zero_p99 = 0.0;
  double costed_p99 = 0.0;
  std::uint64_t handshakes = 0;
  std::uint64_t cpu_queued = 0;
  double pool_hit_rate = 0.0;
};

/// The DESIGN.md §16 cost-sweep: a fixed heterogeneous scenario (cluster
/// medians 90/30/10 ms, 200 rps Poisson) under L3, once with the cost model
/// off and once with a 1-worker 4.8 ms/req proxy CPU stage (ρ ≈ 0.96). The
/// saturated stage queues; its delay lands on every backend alike, so the
/// per-backend latency ratios — and with them L3's weights and the
/// resulting traffic shares — compress toward uniform.
ProxyCostResult bench_proxy_cost(double duration) {
  l3::workload::ScenarioTrace trace("proxy-cost", 3, duration);
  const double medians[3] = {0.090, 0.030, 0.010};
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t s = 0; s < trace.steps(); ++s) {
      trace.at(c, s) =
          l3::workload::TracePoint{medians[c], medians[c] * 3.0, 1.0};
    }
  }
  for (std::size_t s = 0; s < trace.steps(); ++s) trace.set_rps(s, 200.0);

  l3::workload::RunnerConfig config;
  config.warmup = 30.0;
  config.poisson_arrivals = true;

  ProxyCostResult result;
  {
    const auto start = Clock::now();
    const auto run = l3::workload::run_scenario(
        trace, l3::workload::PolicyKind::kL3, config);
    result.zero_wall = seconds_since(start);
    result.requests = run.requests;
    result.zero_skew = l3::lb::weight_skew(run.traffic_share);
    result.zero_p99 = run.summary.latency.p99;
  }
  l3::workload::RunnerConfig costed = config;
  costed.proxy_cost.cpu_per_request = 0.0048;  // 208 req/s capacity
  costed.proxy_cost.concurrency = 1;
  costed.proxy_cost.handshake_cost = 0.002;
  costed.proxy_cost.pool_size = 16;
  costed.proxy_cost.idle_timeout = 30.0;
  {
    const auto start = Clock::now();
    const auto run = l3::workload::run_scenario(
        trace, l3::workload::PolicyKind::kL3, costed);
    result.costed_wall = seconds_since(start);
    result.costed_skew = l3::lb::weight_skew(run.traffic_share);
    result.costed_p99 = run.summary.latency.p99;
    result.handshakes = run.proxy_cost_stats.handshakes;
    result.cpu_queued = run.proxy_cost_stats.queued;
    result.pool_hit_rate = run.proxy_cost_stats.pool_hit_rate();
  }
  result.skew_compression = result.costed_skew > 1.0
                                ? (result.zero_skew - 1.0) /
                                      (result.costed_skew - 1.0)
                                : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  int reps = 3;
  std::string out_path = "BENCH_sim_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--fast] [--reps N] [--out PATH]\n";
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  const int chains = fast ? 200000 : 400000;
  const int hops = 6;
  const int periodic_tasks = fast ? 200 : 1000;
  const double periodic_sim_seconds = fast ? 200.0 : 1000.0;
  const int tsdb_series = 64;
  const int tsdb_cycles = fast ? 2000 : 20000;
  const double scenario_duration = fast ? 60.0 : 240.0;
  const int pick_count = fast ? 2000000 : 10000000;
  const double sweep_duration = fast ? 30.0 : 120.0;
  const int sweep_reps = fast ? 1 : 2;
  const double shard_duration = fast ? 2.0 : 5.0;

  std::cout << "== sim_core — event core + TSDB hot-path benchmark ==\n";

  const double events_per_sec = bench_event_core(chains, hops, reps);
  std::cout << "event core   : " << events_per_sec / 1e6 << " M events/s\n";

  const double periodic = bench_periodic(periodic_tasks, periodic_sim_seconds);
  std::cout << "periodic     : " << periodic / 1e6 << " M firings/s\n";

  const double tsdb_ops_per_sec = bench_tsdb(tsdb_series, tsdb_cycles, 4);
  std::cout << "tsdb         : " << tsdb_ops_per_sec / 1e6 << " M ops/s\n";

  const ScenarioResult scenario = bench_scenario(scenario_duration, reps);
  std::cout << "scenario     : " << scenario.wall_seconds << " s wall for "
            << scenario.sim_seconds << " s sim (" << scenario.requests
            << " requests, "
            << scenario.sim_seconds / scenario.wall_seconds
            << "x realtime)\n";
  std::cout << "obs overhead : " << scenario.profiled_wall_seconds
            << " s wall with recorder (" << scenario.obs_overhead_frac * 100.0
            << "% overhead, " << scenario.profile_subsystems
            << " subsystems profiled)\n";

  RequestPathResult rp = bench_request_path(pick_count, reps);
  rp.requests_per_sec =
      static_cast<double>(scenario.requests) / scenario.wall_seconds;
  std::cout << "request path : weighted " << rp.weighted_picks_per_sec / 1e6
            << " M picks/s, p2c " << rp.p2c_picks_per_sec / 1e6
            << " M picks/s, end-to-end " << rp.requests_per_sec / 1e6
            << " M req/s\n";

  const SweepResult sweep = bench_sweep(sweep_duration, sweep_reps);
  std::cout << "hardware     : " << sweep.hardware_jobs
            << " hardware thread(s)\n";
  std::cout << "sweep        : " << sweep.cells << " cells — jobs=1 "
            << sweep.serial_cells_per_sec << " cells/s, jobs=4 "
            << sweep.parallel_cells_per_sec << " cells/s";
  if (sweep.hardware_jobs >= 2) {
    std::cout << " (speedup " << sweep.speedup << "x on "
              << sweep.hardware_jobs << " hardware threads)\n";
  } else {
    // On a single hardware thread jobs=4 only measures scheduling overhead;
    // a sub-1.0 "speedup" here would misread as a parallel-scaling
    // regression, so don't report one.
    std::cout << " (speedup n/a: only " << sweep.hardware_jobs
              << " hardware thread, jobs=4 cannot scale)\n";
  }

  const ShardResult shard = bench_shards(shard_duration);
  std::cout << "mega shards  : " << shard.backends << " backends — shards=1 "
            << shard.serial_reqs_per_sec << " req/s, shards=4 "
            << shard.sharded_reqs_per_sec << " req/s";
  if (shard.hardware_jobs >= 4) {
    std::cout << " (pinned speedup " << shard.speedup << "x)\n";
  } else {
    std::cout << " (speedup n/a: only " << shard.hardware_jobs
              << " hardware thread(s), 4 shards cannot scale)\n";
  }
  std::cout << "mega barrier : " << shard.barrier.windows << " windows, "
            << shard.barrier.spin_acquires << " spin-acquired, "
            << shard.barrier.parks << " parked, "
            << static_cast<double>(shard.barrier.wait_ns) / 1e6
            << " ms waited (sum over shards)\n";

  const int control_rounds = fast ? 160 : 640;
  const ControlPlaneResult cp = bench_control_plane(control_rounds);
  std::cout << "control plane: " << cp.regions << " regions — scrape "
            << cp.scrape_series_per_sec << " series/s, manage "
            << cp.manage_backends_per_sec << " backends/s (cursor hits "
            << 100.0 * cp.cursor_hit_frac << "%, " << cp.plan_rebuilds
            << " plan rebuilds in " << cp.rounds << " rounds)\n";

  const double proxy_cost_duration = fast ? 60.0 : 120.0;
  const ProxyCostResult pc = bench_proxy_cost(proxy_cost_duration);
  std::cout << "proxy cost   : share skew " << pc.zero_skew
            << " (zero cost) -> " << pc.costed_skew
            << " (saturated proxy, compression " << pc.skew_compression
            << "x); p99 " << pc.zero_p99 << " s -> " << pc.costed_p99
            << " s, " << pc.handshakes << " handshakes, pool hit rate "
            << pc.pool_hit_rate << "\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"sim_core\",\n"
       << "  \"fast\": " << (fast ? "true" : "false") << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"hardware_threads\": " << sweep.hardware_jobs << ",\n"
       << "  \"event_core\": {\n"
       << "    \"chains\": " << chains << ",\n"
       << "    \"hops\": " << hops << ",\n"
       << "    \"events_per_sec\": " << events_per_sec << "\n"
       << "  },\n"
       << "  \"periodic\": {\n"
       << "    \"tasks\": " << periodic_tasks << ",\n"
       << "    \"firings_per_sec\": " << periodic << "\n"
       << "  },\n"
       << "  \"tsdb\": {\n"
       << "    \"series\": " << tsdb_series << ",\n"
       << "    \"cycles\": " << tsdb_cycles << ",\n"
       << "    \"ops_per_sec\": " << tsdb_ops_per_sec << "\n"
       << "  },\n"
       << "  \"scenario\": {\n"
       << "    \"sim_seconds\": " << scenario.sim_seconds << ",\n"
       << "    \"wall_seconds\": " << scenario.wall_seconds << ",\n"
       << "    \"requests\": " << scenario.requests << ",\n"
       << "    \"realtime_factor\": "
       << scenario.sim_seconds / scenario.wall_seconds << ",\n"
       << "    \"profiled_wall_seconds\": " << scenario.profiled_wall_seconds
       << ",\n"
       << "    \"obs_overhead_frac\": " << scenario.obs_overhead_frac << ",\n"
       << "    \"obs_overhead_frac_raw\": " << scenario.obs_overhead_frac_raw
       << ",\n"
       << "    \"obs_overhead_note\": \"clamped at 0; raw negatives are "
          "run-to-run noise, not a speedup\",\n"
       << "    \"profile_subsystems\": " << scenario.profile_subsystems << "\n"
       << "  },\n"
       << "  \"request_path\": {\n"
       << "    \"picks\": " << rp.picks << ",\n"
       << "    \"weighted_picks_per_sec\": " << rp.weighted_picks_per_sec
       << ",\n"
       << "    \"p2c_picks_per_sec\": " << rp.p2c_picks_per_sec << ",\n"
       << "    \"requests_per_sec\": " << rp.requests_per_sec << "\n"
       << "  },\n"
       << "  \"sweep\": {\n"
       << "    \"cells\": " << sweep.cells << ",\n"
       << "    \"hardware_threads\": " << sweep.hardware_jobs << ",\n"
       << "    \"jobs1_wall_seconds\": " << sweep.serial_wall << ",\n"
       << "    \"jobs4_wall_seconds\": " << sweep.parallel_wall << ",\n"
       << "    \"jobs1_cells_per_sec\": " << sweep.serial_cells_per_sec
       << ",\n"
       << "    \"jobs4_cells_per_sec\": " << sweep.parallel_cells_per_sec
       << ",\n";
  if (sweep.hardware_jobs >= 2) {
    json << "    \"jobs4_speedup\": " << sweep.speedup << "\n";
  } else {
    // A "speedup" below 1.0 on a 1-thread box reads as a parallel-scaling
    // regression when it is really just scheduling overhead: flag it
    // instead of publishing the misleading ratio.
    json << "    \"jobs4_speedup_suppressed\": true,\n"
         << "    \"jobs4_speedup_note\": \"only " << sweep.hardware_jobs
         << " hardware thread(s); jobs=4 cannot scale, ratio omitted\"\n";
  }
  json << "  },\n"
       << "  \"shards\": {\n"
       << "    \"regions\": " << shard.regions << ",\n"
       << "    \"backends\": " << shard.backends << ",\n"
       << "    \"requests\": " << shard.requests << ",\n"
       << "    \"hardware_threads\": " << shard.hardware_jobs << ",\n"
       << "    \"shards1_wall_seconds\": " << shard.serial_wall << ",\n"
       << "    \"shards4_wall_seconds\": " << shard.sharded_wall << ",\n"
       << "    \"shards1_reqs_per_sec\": " << shard.serial_reqs_per_sec
       << ",\n"
       << "    \"shards4_reqs_per_sec\": " << shard.sharded_reqs_per_sec
       << ",\n"
       << "    \"barrier_windows\": " << shard.barrier.windows << ",\n"
       << "    \"barrier_spin_acquires\": " << shard.barrier.spin_acquires
       << ",\n"
       << "    \"barrier_parks\": " << shard.barrier.parks << ",\n"
       << "    \"barrier_wait_seconds\": "
       << static_cast<double>(shard.barrier.wait_ns) / 1e9 << ",\n";
  if (shard.hardware_jobs >= 4) {
    json << "    \"shards_speedup\": " << shard.speedup << "\n";
  } else {
    // Same honesty rule as jobs4_speedup: with the shard threads pinned
    // onto too few CPUs the ratio only measures barrier overhead — flag it
    // instead of publishing a misleading number.
    json << "    \"shards_speedup_suppressed\": true,\n"
         << "    \"shards_speedup_note\": \"only " << shard.hardware_jobs
         << " hardware thread(s); 4 pinned shards cannot scale, ratio "
            "omitted\"\n";
  }
  json << "  },\n"
       << "  \"control_plane\": {\n"
       << "    \"regions\": " << cp.regions << ",\n"
       << "    \"backends_per_split\": " << cp.backends_per_split << ",\n"
       << "    \"series_per_round\": " << cp.series_per_round << ",\n"
       << "    \"rounds\": " << cp.rounds << ",\n"
       << "    \"scrape_wall_seconds\": " << cp.scrape_wall << ",\n"
       << "    \"manage_wall_seconds\": " << cp.manage_wall << ",\n"
       << "    \"scrape_series_per_sec\": " << cp.scrape_series_per_sec
       << ",\n"
       << "    \"manage_backends_per_sec\": " << cp.manage_backends_per_sec
       << ",\n"
       << "    \"cursor_hit_frac\": " << cp.cursor_hit_frac << ",\n"
       << "    \"plan_rebuilds\": " << cp.plan_rebuilds << "\n"
       << "  },\n"
       << "  \"proxy_cost\": {\n"
       << "    \"requests\": " << pc.requests << ",\n"
       << "    \"zero_wall_seconds\": " << pc.zero_wall << ",\n"
       << "    \"costed_wall_seconds\": " << pc.costed_wall << ",\n"
       << "    \"zero_share_skew\": " << pc.zero_skew << ",\n"
       << "    \"costed_share_skew\": " << pc.costed_skew << ",\n"
       << "    \"skew_compression\": " << pc.skew_compression << ",\n"
       << "    \"zero_p99_seconds\": " << pc.zero_p99 << ",\n"
       << "    \"costed_p99_seconds\": " << pc.costed_p99 << ",\n"
       << "    \"handshakes\": " << pc.handshakes << ",\n"
       << "    \"cpu_queued\": " << pc.cpu_queued << ",\n"
       << "    \"pool_hit_rate\": " << pc.pool_hit_rate << "\n"
       << "  }\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
