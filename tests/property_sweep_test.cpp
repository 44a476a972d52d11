// Cross-cutting property sweeps: invariants that must hold for EVERY
// scenario in the library, across seeds, and for the full pipeline.
#include "l3/common/stats.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"
#include "l3/workload/trace_behavior.h"

#include <gtest/gtest.h>

#include <cmath>

namespace l3::workload {
namespace {

ScenarioTrace make_by_index(int index, std::uint64_t seed) {
  switch (index) {
    case 0:
      return make_scenario1(seed);
    case 1:
      return make_scenario2(seed);
    case 2:
      return make_scenario3(seed);
    case 3:
      return make_scenario4(seed);
    case 4:
      return make_scenario5(seed);
    case 5:
      return make_failure1(seed);
    default:
      return make_failure2(seed);
  }
}

/// (scenario index, seed) grid.
class ScenarioSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ScenarioSweep, GeneratorInvariants) {
  const auto [index, seed] = GetParam();
  const auto trace = make_by_index(index, seed);
  EXPECT_EQ(trace.cluster_count(), 3u);
  EXPECT_EQ(trace.steps(), 600u);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t s = 0; s < trace.steps(); ++s) {
      const auto& p = trace.at(c, s);
      EXPECT_GT(p.median, 0.0);
      EXPECT_GT(p.p99, p.median);
      EXPECT_LE(p.p99, 6.0);  // every scenario is capped at/below 5 s
      EXPECT_GE(p.success_rate, 0.0);
      EXPECT_LE(p.success_rate, 1.0);
      EXPECT_TRUE(std::isfinite(p.median) && std::isfinite(p.p99));
    }
  }
  for (std::size_t s = 0; s < trace.steps(); ++s) {
    EXPECT_GE(trace.rps_at(static_cast<double>(s)), 1.0);
  }
}

TEST_P(ScenarioSweep, SameSeedIsBitwiseReproducible) {
  const auto [index, seed] = GetParam();
  const auto a = make_by_index(index, seed);
  const auto b = make_by_index(index, seed);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t s = 0; s < a.steps(); s += 7) {
      EXPECT_EQ(a.at(c, s).median, b.at(c, s).median);
      EXPECT_EQ(a.at(c, s).p99, b.at(c, s).p99);
      EXPECT_EQ(a.at(c, s).success_rate, b.at(c, s).success_rate);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScenarioSweep,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values<std::uint64_t>(1, 99, 31337)));

/// Mixture-sampler invariants over a parameter grid.
class MixtureSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MixtureSweep, RealisesMedianAndP99) {
  const auto [median, ratio] = GetParam();
  const TracePoint point{median, median * ratio, 1.0};
  SplitRng rng(77);
  std::vector<double> samples;
  const int n = 60000;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double v = TraceReplayBehavior::sample_latency(point, rng);
    EXPECT_GT(v, 0.0);
    samples.push_back(v);
  }
  EXPECT_NEAR(percentile(samples, 0.50) / median, 1.0, 0.08);
  // The P99 lands within the slow component's spread of the target.
  EXPECT_NEAR(percentile(samples, 0.99) / point.p99, 1.0, 0.35);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MixtureSweep,
    ::testing::Combine(::testing::Values(0.003, 0.050, 0.500),
                       ::testing::Values(2.0, 5.0, 20.0)));

/// Full-pipeline invariants for every policy on a short heterogeneous run.
class PolicyPipelineSweep : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyPipelineSweep, SaneEndToEnd) {
  ScenarioTrace trace("sweep", 3, 90.0);
  for (std::size_t s = 0; s < trace.steps(); ++s) {
    trace.at(0, s) = TracePoint{0.020, 0.080, 1.0};
    trace.at(1, s) = TracePoint{0.080, 0.320, 0.95};
    trace.at(2, s) = TracePoint{0.040, 0.160, 1.0};
    trace.set_rps(s, 120.0);
  }
  RunnerConfig config;
  config.warmup = 30.0;
  const auto r = run_scenario(trace, GetParam(), config);
  EXPECT_EQ(r.policy, policy_name(GetParam()));
  EXPECT_GT(r.requests, 6000u);
  EXPECT_GT(r.summary.latency.p50, 0.0);
  EXPECT_GE(r.summary.latency.p99, r.summary.latency.p50);
  EXPECT_GT(r.summary.success_rate, 0.90);
  double share = 0.0;
  for (double s : r.traffic_share) {
    EXPECT_GE(s, 0.0);
    share += s;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  // A weight update is a push that changed the split: round-robin keeps
  // the equal initial weights, every other policy moves them.
  if (GetParam() == PolicyKind::kRoundRobin) {
    EXPECT_EQ(r.weight_updates, 0u);
  } else {
    EXPECT_GT(r.weight_updates, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyPipelineSweep,
                         ::testing::Values(PolicyKind::kRoundRobin,
                                           PolicyKind::kC3, PolicyKind::kL3,
                                           PolicyKind::kLocalityFailover));

/// The headline comparison holds across WAN delay settings: L3 never does
/// materially worse than round-robin, from co-located to far clusters.
class WanSweep : public ::testing::TestWithParam<double> {};

TEST_P(WanSweep, L3NeverMateriallyWorseThanRoundRobin) {
  ScenarioTrace trace("wan-sweep", 3, 180.0);
  for (std::size_t s = 0; s < trace.steps(); ++s) {
    trace.at(0, s) = TracePoint{0.030, 0.120, 1.0};
    trace.at(1, s) = TracePoint{0.150, 0.600, 1.0};
    trace.at(2, s) = TracePoint{0.030, 0.120, 1.0};
    trace.set_rps(s, 120.0);
  }
  RunnerConfig config;
  config.warmup = 50.0;
  config.wan_one_way = GetParam();
  const auto rr = run_scenario(trace, PolicyKind::kRoundRobin, config);
  const auto l3 = run_scenario(trace, PolicyKind::kL3, config);
  EXPECT_LT(l3.summary.latency.p99, rr.summary.latency.p99 * 1.05)
      << "wan=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(WanDelays, WanSweep,
                         ::testing::Values(0.0005, 0.005, 0.020, 0.070));

}  // namespace
}  // namespace l3::workload
