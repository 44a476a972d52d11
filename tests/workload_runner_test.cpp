// Tests for the scenario runner (benchmark coordinator): determinism,
// warm-up handling, policy dispatch, and the trace behavior's sampling.
#include "l3/workload/runner.h"

#include "l3/workload/scenarios.h"
#include "l3/workload/trace_behavior.h"

#include <gtest/gtest.h>

namespace l3::workload {
namespace {

ScenarioTrace tiny_uniform_trace(double median, double p99, double rps) {
  ScenarioTrace trace("tiny", 3, 60.0);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t s = 0; s < trace.steps(); ++s) {
      trace.at(c, s) = TracePoint{median, p99, 1.0};
    }
  }
  for (std::size_t s = 0; s < trace.steps(); ++s) trace.set_rps(s, rps);
  return trace;
}

RunnerConfig fast_config() {
  RunnerConfig config;
  config.warmup = 20.0;
  config.duration = 40.0;
  return config;
}

TEST(TraceBehavior, MixtureRealisesMedianAndP99) {
  const TracePoint point{0.050, 0.500, 1.0};
  SplitRng rng(3);
  std::vector<double> samples;
  const int n = 100000;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    samples.push_back(TraceReplayBehavior::sample_latency(point, rng));
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[n / 2], 0.050, 0.005);
  EXPECT_NEAR(samples[static_cast<int>(n * 0.99)], 0.500, 0.10);
}

TEST(TraceBehavior, MeanInsensitiveToTailMovement) {
  // The property separating tail-aware L3 from mean-based C3: multiplying
  // the P99 by 4 moves the mean by far less than 4x.
  SplitRng rng(4);
  auto mean_of = [&rng](const TracePoint& p) {
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      sum += TraceReplayBehavior::sample_latency(p, rng);
    }
    return sum / n;
  };
  const double base = mean_of({0.050, 0.250, 1.0});
  const double spiked = mean_of({0.050, 1.000, 1.0});
  EXPECT_LT(spiked / base, 1.6);
  EXPECT_GT(spiked / base, 1.05);
}

TEST(Runner, DeterministicForSameSeed) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 50.0);
  const auto a = run_scenario(trace, PolicyKind::kL3, fast_config());
  const auto b = run_scenario(trace, PolicyKind::kL3, fast_config());
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.summary.latency.p99, b.summary.latency.p99);
  EXPECT_DOUBLE_EQ(a.summary.success_rate, b.summary.success_rate);
}

// The obs contract: binding the flight recorder must not perturb the
// simulation. Identical results with profiling on and off, and the profile
// itself is deterministic across runs.
TEST(Runner, ProfilingDoesNotPerturbResults) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 50.0);
  RunnerConfig profiled = fast_config();
  profiled.profile = true;
  const auto plain = run_scenario(trace, PolicyKind::kL3, fast_config());
  const auto a = run_scenario(trace, PolicyKind::kL3, profiled);
  const auto b = run_scenario(trace, PolicyKind::kL3, profiled);

  EXPECT_EQ(plain.requests, a.requests);
  EXPECT_DOUBLE_EQ(plain.summary.latency.p99, a.summary.latency.p99);
  EXPECT_DOUBLE_EQ(plain.summary.success_rate, a.summary.success_rate);
  EXPECT_TRUE(plain.profile.empty());  // off by default

  // Deterministic digest: identical counts for identical runs.
  EXPECT_EQ(a.profile.cells, b.profile.cells);
  EXPECT_EQ(a.profile.scope_count, b.profile.scope_count);
  EXPECT_EQ(a.profile.counters, b.profile.counters);
  EXPECT_EQ(a.profile.ring_recorded, b.profile.ring_recorded);
#if L3_OBS_ENABLED
  EXPECT_FALSE(a.profile.empty());
  // The full scenario path touches at least 6 instrumented subsystems
  // (dispatch, picker rebuild, picks, tsdb, scraper, controller).
  EXPECT_GE(a.profile.active_subsystems(), 6u);
  EXPECT_GT(
      a.profile.counters[static_cast<std::size_t>(obs::CounterId::kSimEvents)],
      0u);
#endif
}

TEST(Runner, PickerAndScrapePlanRebuildOnlyOnChange) {
#if !L3_OBS_ENABLED
  GTEST_SKIP() << "scope counts are compiled out with L3_OBS=OFF";
#endif
  // The proxy's cumulative-weight table is rebuilt only when the split's
  // weights (or the availability mask) change, and the scraper's columnar
  // plan only when a registry gains series. A cache that invalidates per
  // pick would count one rebuild per weighted pick (~36k here); a plan
  // rebuilt per scrape would count one per scrape (~30).
  RunnerConfig config;
  config.duration = 60.0;
  config.profile = true;
  const auto r = run_scenario(make_scenario1(1), PolicyKind::kL3, config);
  const auto count = [&](obs::ScopeId id) {
    return r.profile.scope_count[static_cast<std::size_t>(id)];
  };
  EXPECT_GT(r.weight_updates, 0u);
  EXPECT_GT(count(obs::ScopeId::kWeightedPick), 1000u);
  EXPECT_GT(count(obs::ScopeId::kScraperScrape), 10u);
  EXPECT_GE(count(obs::ScopeId::kPickerRebuild), 1u);
  EXPECT_LE(count(obs::ScopeId::kPickerRebuild), r.weight_updates + 1);
  EXPECT_LE(count(obs::ScopeId::kScraperPlan), 2u);
}

TEST(Runner, DifferentSeedsDiffer) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 50.0);
  RunnerConfig c2 = fast_config();
  c2.seed = 777;
  const auto a = run_scenario(trace, PolicyKind::kL3, fast_config());
  const auto b = run_scenario(trace, PolicyKind::kL3, c2);
  EXPECT_NE(a.summary.latency.p99, b.summary.latency.p99);
}

TEST(Runner, RequestCountMatchesRateAndDuration) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 100.0);
  const auto r = run_scenario(trace, PolicyKind::kRoundRobin, fast_config());
  // 100 RPS over the 40 s measured window (warm-up excluded).
  EXPECT_NEAR(static_cast<double>(r.requests), 4000.0, 50.0);
  EXPECT_EQ(r.policy, "round-robin");
}

TEST(Runner, TrafficSharesSumToOne) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 100.0);
  const auto r = run_scenario(trace, PolicyKind::kL3, fast_config());
  double total = 0.0;
  for (double s : r.traffic_share) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Runner, RoundRobinSplitsEvenly) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 150.0);
  const auto r = run_scenario(trace, PolicyKind::kRoundRobin, fast_config());
  for (double s : r.traffic_share) EXPECT_NEAR(s, 1.0 / 3.0, 0.05);
}

TEST(Runner, TimelineCoversMeasuredWindow) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 50.0);
  const auto r = run_scenario(trace, PolicyKind::kL3, fast_config());
  EXPECT_EQ(r.timeline.size(), 40u);  // one bucket per second
  for (const auto& b : r.timeline) EXPECT_GT(b.count, 0u);
}

TEST(Runner, WeightUpdatesHappen) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 50.0);
  const auto r = run_scenario(trace, PolicyKind::kL3, fast_config());
  // 60 s total at a 5 s control interval ≈ 12 updates.
  EXPECT_GE(r.weight_updates, 8u);
}

TEST(Runner, RoundRobinReportsNoWeightUpdates) {
  // A weight update is a push that changed the split. Round-robin only
  // re-publishes the equal initial weights, so it reports none; L3 on the
  // same trace moves the weights.
  const auto trace = tiny_uniform_trace(0.020, 0.100, 50.0);
  const auto rr = run_scenario(trace, PolicyKind::kRoundRobin, fast_config());
  const auto l3 = run_scenario(trace, PolicyKind::kL3, fast_config());
  EXPECT_EQ(rr.weight_updates, 0u);
  EXPECT_GT(l3.weight_updates, 0u);
}

TEST(Runner, PolicyFactoryCoversAllKinds) {
  for (const auto kind :
       {PolicyKind::kRoundRobin, PolicyKind::kC3, PolicyKind::kL3,
        PolicyKind::kLocalityFailover}) {
    const auto policy = make_policy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), policy_name(kind));
  }
}

TEST(Runner, LocalityPolicyKeepsTrafficLocal) {
  const auto trace = tiny_uniform_trace(0.020, 0.100, 100.0);
  const auto r =
      run_scenario(trace, PolicyKind::kLocalityFailover, fast_config());
  EXPECT_GT(r.traffic_share[0], 0.95);  // cluster-1 is local to the client
}

TEST(Runner, HeterogeneousLatencyFavoursFastClusterUnderL3) {
  // Cluster 1 is 5x slower than the others: L3 must send it less traffic
  // than round-robin's third.
  ScenarioTrace trace("hetero", 3, 120.0);
  for (std::size_t s = 0; s < trace.steps(); ++s) {
    trace.at(0, s) = TracePoint{0.250, 1.000, 1.0};
    trace.at(1, s) = TracePoint{0.050, 0.200, 1.0};
    trace.at(2, s) = TracePoint{0.050, 0.200, 1.0};
    trace.set_rps(s, 100.0);
  }
  RunnerConfig config;
  config.warmup = 40.0;
  const auto r = run_scenario(trace, PolicyKind::kL3, config);
  EXPECT_LT(r.traffic_share[0], 0.20);
}

}  // namespace
}  // namespace l3::workload
