// Tests for the proxy hot path: weighted routing shares, metric export,
// in-flight accounting, timeouts, and health-based exclusion.
#include "l3/mesh/mesh.h"

#include "l3/mesh/metric_names.h"
#include "l3/sim/simulator.h"

#include "manual_behavior.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace l3::mesh {
namespace {

namespace mn = metric_names;

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() : rng(11), mesh(sim, rng, make_config()) {
    c1 = mesh.add_cluster("c1");
    c2 = mesh.add_cluster("c2");
    c3 = mesh.add_cluster("c3");
  }

  static MeshConfig make_config() {
    MeshConfig config;
    config.local_delay = 0.0;
    config.local_jitter_frac = 0.0;
    config.health_probe_interval = 0.0;  // disabled unless a test enables it
    return config;
  }

  void deploy_everywhere(SimDuration median = 0.010,
                         SimDuration p99 = 0.030) {
    for (ClusterId c : {c1, c2, c3}) {
      mesh.deploy("svc", c, {},
                  std::make_unique<FixedLatencyBehavior>(median, p99));
    }
  }

  /// Sends n requests from c1 and returns the per-cluster response counts.
  std::vector<int> send_and_count(int n) {
    std::vector<int> counts(3, 0);
    for (int i = 0; i < n; ++i) {
      mesh.call(c1, "svc", 0, [&](const Response& r) {
        counts[r.backend_cluster] += 1;
      });
    }
    sim.run_until(sim.now() + 30.0);
    return counts;
  }

  sim::Simulator sim;
  SplitRng rng;
  Mesh mesh;
  ClusterId c1 = 0, c2 = 0, c3 = 0;
};

TEST_F(ProxyTest, EqualWeightsGiveRoughlyEqualShares) {
  deploy_everywhere();
  const auto counts = send_and_count(3000);
  for (int c : counts) EXPECT_NEAR(c, 1000, 120);
}

// A null function pointer as the response callback is refused where its
// ResponseFn is built, before the request goes out, instead of crashing
// when the response arrives.
TEST_F(ProxyTest, NullResponseFunctionPointerIsRejected) {
  deploy_everywhere();
  EXPECT_THROW(
      mesh.call(c1, "svc", 0, static_cast<void (*)(const Response&)>(nullptr)),
      ContractViolation);
  sim.run_until(30.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST_F(ProxyTest, TrafficFollowsWeightRatios) {
  deploy_everywhere();
  Proxy& proxy = mesh.proxy(c1, "svc");
  TrafficSplit* split = mesh.find_split(c1, "svc");
  ASSERT_NE(split, nullptr);
  const std::vector<std::uint64_t> w{6000, 3000, 1000};
  split->set_weights(w);
  const auto counts = send_and_count(5000);
  EXPECT_NEAR(counts[0] / 5000.0, 0.6, 0.03);
  EXPECT_NEAR(counts[1] / 5000.0, 0.3, 0.03);
  EXPECT_NEAR(counts[2] / 5000.0, 0.1, 0.03);
  EXPECT_EQ(proxy.sent(), 5000u);
}

TEST_F(ProxyTest, ZeroWeightBackendGetsNoTraffic) {
  deploy_everywhere();
  mesh.proxy(c1, "svc");
  mesh.find_split(c1, "svc")->set_weights(std::vector<std::uint64_t>{1, 0, 1});
  const auto counts = send_and_count(2000);
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[2], 0);
}

TEST_F(ProxyTest, LatencyIncludesWanRtt) {
  deploy_everywhere(0.010, 0.0101);
  mesh.wan().set_symmetric(c1, c2, {.base = 0.050, .jitter_frac = 0.0});
  mesh.proxy(c1, "svc");
  mesh.find_split(c1, "svc")->set_weights(std::vector<std::uint64_t>{0, 1, 0});
  double latency = 0.0;
  mesh.call(c1, "svc", 0, [&](const Response& r) { latency = r.latency; });
  sim.run_until(10.0);
  EXPECT_GT(latency, 0.100);  // 2 × 50 ms WAN + exec
  EXPECT_LT(latency, 0.200);
}

TEST_F(ProxyTest, MetricsExportedPerBackend) {
  deploy_everywhere();
  send_and_count(300);
  auto& registry = mesh.registry(c1);
  double total = 0.0;
  for (const char* dst : {"c1", "c2", "c3"}) {
    total += registry
                 .counter(mn::kRequestTotal,
                          mn::backend_labels("svc", "c1", dst))
                 .value();
  }
  EXPECT_DOUBLE_EQ(total, 300.0);
  // All succeeded; failure counters stay zero; in-flight drained to zero.
  for (const char* dst : {"c1", "c2", "c3"}) {
    const auto labels = mn::backend_labels("svc", "c1", dst);
    EXPECT_DOUBLE_EQ(registry.counter(mn::kFailureTotal, labels).value(), 0.0);
    EXPECT_DOUBLE_EQ(registry.gauge(mn::kInflight, labels).value(), 0.0);
  }
}

TEST_F(ProxyTest, LatencySumCounterAccumulates) {
  deploy_everywhere();
  send_and_count(100);
  auto& registry = mesh.registry(c1);
  double sum = 0.0;
  for (const char* dst : {"c1", "c2", "c3"}) {
    sum += registry
               .counter(mn::kLatencySuccessSum,
                        mn::backend_labels("svc", "c1", dst))
               .value();
  }
  EXPECT_GT(sum, 100 * 0.005);  // 100 requests at ≥ ~10 ms median
}

TEST_F(ProxyTest, InflightTracksOutstandingRequests) {
  deploy_everywhere(1.0, 1.001);  // 1 s execution
  Proxy& proxy = mesh.proxy(c1, "svc");
  for (int i = 0; i < 10; ++i) {
    mesh.call(c1, "svc", 0, [](const Response&) {});
  }
  sim.run_until(0.5);  // mid-flight
  EXPECT_EQ(proxy.inflight(), 10u);
  sim.run_until(5.0);
  EXPECT_EQ(proxy.inflight(), 0u);
}

TEST_F(ProxyTest, TimeoutProducesFailureWithTimeoutLatency) {
  MeshConfig config = make_config();
  config.request_timeout = 0.5;
  Mesh m(sim, SplitRng(3), config);
  const auto a = m.add_cluster("a");
  m.deploy("svc", a, {},
           std::make_unique<FixedLatencyBehavior>(2.0, 2.001));  // way > 0.5 s
  Response response;
  bool got = false;
  m.call(a, "svc", 0, [&](const Response& r) {
    response = r;
    got = true;
  });
  sim.run_until(10.0);
  ASSERT_TRUE(got);
  EXPECT_FALSE(response.success);
  EXPECT_TRUE(response.timed_out);
  EXPECT_DOUBLE_EQ(response.latency, 0.5);
}

TEST_F(ProxyTest, LateResponseAfterTimeoutIsIgnored) {
  MeshConfig config = make_config();
  config.request_timeout = 0.5;
  Mesh m(sim, SplitRng(4), config);
  const auto a = m.add_cluster("a");
  m.deploy("svc", a, {}, std::make_unique<FixedLatencyBehavior>(2.0, 2.001));
  int callbacks = 0;
  m.call(a, "svc", 0, [&](const Response&) { ++callbacks; });
  sim.run_until(10.0);  // behavior completes at ~2 s, after the timeout
  EXPECT_EQ(callbacks, 1);
}

TEST_F(ProxyTest, HealthExclusionReroutesAfterProbe) {
  MeshConfig config = make_config();
  config.health_probe_interval = 1.0;
  Mesh m(sim, SplitRng(5), config);
  const auto a = m.add_cluster("a");
  const auto b = m.add_cluster("b");
  auto& da = m.deploy("svc", a, {},
                      std::make_unique<FixedLatencyBehavior>(0.01, 0.02));
  m.deploy("svc", b, {}, std::make_unique<FixedLatencyBehavior>(0.01, 0.02));
  m.proxy(a, "svc");

  da.set_down(true);
  sim.run_until(2.0);  // health probe notices
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 200; ++i) {
    m.call(a, "svc", 0,
           [&](const Response& r) { counts[r.backend_cluster] += 1; });
  }
  sim.run_until(10.0);
  EXPECT_EQ(counts[0], 0);  // excluded by the health view
  EXPECT_EQ(counts[1], 200);
}

TEST_F(ProxyTest, DepthLimitFailsFast) {
  deploy_everywhere();
  bool got = false;
  mesh.call(c1, "svc", 100, [&](const Response& r) {
    got = true;
    EXPECT_FALSE(r.success);
  });
  EXPECT_TRUE(got);  // synchronous failure, no recursion
}

// --- weighted-picker distribution (chi-square) ----------------------------

/// Pearson chi-square statistic over observed counts vs expected counts;
/// zero-expectation cells are excluded (the matching count is asserted to
/// be zero separately).
double chi_square(const std::vector<int>& counts,
                  const std::vector<double>& expected) {
  double chi = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (expected[i] <= 0.0) continue;
    const double d = static_cast<double>(counts[i]) - expected[i];
    chi += d * d / expected[i];
  }
  return chi;
}

class PickerDistribution : public ProxyTest {
 protected:
  std::vector<int> count_picks(Proxy& proxy, int n) {
    std::vector<int> counts(3, 0);
    for (int i = 0; i < n; ++i) counts[proxy.pick_backend()] += 1;
    return counts;
  }
};

TEST_F(PickerDistribution, WeightedSharesPassChiSquare) {
  deploy_everywhere();
  Proxy& proxy = mesh.proxy(c1, "svc");
  mesh.find_split(c1, "svc")
      ->set_weights(std::vector<std::uint64_t>{6000, 3000, 1000});
  const auto counts = count_picks(proxy, 9000);
  // df = 2; 13.82 is the p = 0.001 critical value. Deterministic seed, so
  // this is a regression bound, not a flaky statistical test.
  EXPECT_LT(chi_square(counts, {5400.0, 2700.0, 900.0}), 13.82);
}

TEST_F(PickerDistribution, ZeroWeightBackendNeverPicked) {
  deploy_everywhere();
  Proxy& proxy = mesh.proxy(c1, "svc");
  mesh.find_split(c1, "svc")
      ->set_weights(std::vector<std::uint64_t>{2, 0, 1});
  const auto counts = count_picks(proxy, 3000);
  // The fallback path must never leak a zero-weight backend (the old
  // open-coded walk could return the last backend regardless of weight).
  EXPECT_EQ(counts[1], 0);
  EXPECT_LT(chi_square(counts, {2000.0, 0.0, 1000.0}), 10.83);  // df = 1
}

TEST_F(PickerDistribution, EjectedBackendExcludedAndRemainderReweighted) {
  OutlierDetectionConfig outlier;
  outlier.enabled = true;
  outlier.failure_threshold = 0.5;
  outlier.min_requests = 10;
  outlier.window = 10.0;
  outlier.ejection_duration = 60.0;
  outlier.max_ejected_fraction = 0.67;
  MeshConfig config = make_config();
  config.outlier_detection = outlier;
  Mesh m(sim, SplitRng(17), config);
  const auto a = m.add_cluster("a");
  const auto b = m.add_cluster("b");
  const auto c = m.add_cluster("c");
  m.deploy("svc", a, {},
           std::make_unique<FixedLatencyBehavior>(0.010, 0.020, 0.0));
  for (ClusterId cl : {b, c}) {
    m.deploy("svc", cl, {},
             std::make_unique<FixedLatencyBehavior>(0.010, 0.020, 1.0));
  }
  Proxy& proxy = m.proxy(a, "svc");
  m.find_split(a, "svc")
      ->set_weights(std::vector<std::uint64_t>{3000, 2000, 1000});
  for (int i = 0; i < 100; ++i) {
    m.call(a, "svc", 0, [](const Response&) {});
  }
  sim.run_until(sim.now() + 5.0);
  ASSERT_GT(proxy.outlier_detector().ejections(), 0u);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 6000; ++i) counts[proxy.pick_backend()] += 1;
  // Backend a is ejected: the picker must renormalize over {b, c} at their
  // 2:1 weight ratio, not fall back to the full set.
  EXPECT_EQ(counts[0], 0);
  EXPECT_LT(chi_square(counts, {0.0, 4000.0, 2000.0}), 10.83);  // df = 1
}

// --- pooled call-state lifecycle ------------------------------------------

TEST(ProxyCallPool, FinishedCallRecyclesBeforeItsDeadline) {
  sim::Simulator sim;
  MeshConfig config;
  config.local_delay = 0.0;
  config.local_jitter_frac = 0.0;
  config.health_probe_interval = 0.0;
  config.request_timeout = 0.5;
  Mesh m(sim, SplitRng(9), config);
  const auto a = m.add_cluster("a");
  m.deploy("svc", a, {},
           std::make_unique<FixedLatencyBehavior>(0.010, 0.0101));
  Proxy& proxy = m.proxy(a, "svc");
  int callbacks = 0;
  m.call(a, "svc", 0, [&](const Response& r) {
    ++callbacks;
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(r.timed_out);
  });
  sim.run_until(0.1);  // response delivered; deadline (0.5) still ahead
  EXPECT_EQ(callbacks, 1);
  // The finished call's deadline entry is drained as the response settles,
  // so the slot recycles ~0.49 s before the shared timer would reach it —
  // it does not idle until the deadline the way a per-call timeout event
  // held it.
  EXPECT_EQ(proxy.live_calls(), 0u);
  sim.run_until(1.0);  // the armed timer fires; must be a harmless no-op
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(proxy.live_calls(), 0u);
}

TEST(ProxyCallPool, SlotReuseUnderTimeoutResponseRacesIsExactlyOnce) {
  // Latency distribution straddles the timeout, so responses and timeouts
  // interleave in both orders while slots are continuously recycled. Every
  // request must get exactly one callback and the pool must drain to zero.
  sim::Simulator sim;
  MeshConfig config;
  config.local_delay = 0.0;
  config.local_jitter_frac = 0.0;
  config.health_probe_interval = 0.0;
  config.request_timeout = 0.05;
  Mesh m(sim, SplitRng(21), config);
  const auto a = m.add_cluster("a");
  m.deploy("svc", a, {.replicas = 3, .concurrency = 50, .queue_capacity = 256},
           std::make_unique<FixedLatencyBehavior>(0.040, 0.120));
  Proxy& proxy = m.proxy(a, "svc");
  int callbacks = 0;
  int timeouts = 0;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 10; ++i) {
      m.call(a, "svc", 0, [&](const Response& r) {
        ++callbacks;
        if (r.timed_out) ++timeouts;
      });
    }
    sim.run_until(sim.now() + 0.030);  // overlap the waves
  }
  sim.run_until(sim.now() + 30.0);  // drain behaviors and timeout events
  EXPECT_EQ(callbacks, 200);
  EXPECT_GT(timeouts, 0);      // both orders actually exercised
  EXPECT_LT(timeouts, 200);
  EXPECT_EQ(proxy.live_calls(), 0u);
}

using test_util::ManualBehavior;

TEST(ProxyCallPool, TimeoutRingSurvivesGrowthAndWrap) {
  // Each round keeps more than 1,000 deadlines in flight behind a stuck
  // head-of-line prefix: the answered calls cannot leave the deadline
  // store until the prefix times out. 1,500 calls grow the empty store;
  // 3,000 more start where the first round drained it, so they wrap and
  // then grow while wrapped; 4,096 fill that store exactly. In every round
  // the first caller sends again from its timeout callback, which in the
  // last round grows the store inside the timeout sweep.
  sim::Simulator sim;
  MeshConfig config;
  config.local_delay = 0.0;
  config.local_jitter_frac = 0.0;
  config.health_probe_interval = 0.0;
  config.request_timeout = 1.0;
  Mesh m(sim, SplitRng(5), config);
  const auto a = m.add_cluster("a");
  std::vector<OutcomeFn> parked;
  m.deploy("svc", a, {.replicas = 1, .concurrency = 8192, .queue_capacity = 1},
           std::make_unique<ManualBehavior>(parked));
  Proxy& proxy = m.proxy(a, "svc");

  struct Round {
    std::size_t calls;
    std::size_t stuck;  ///< the first `stuck` calls time out
  };
  for (const Round round :
       {Round{1500, 100}, Round{3000, 700}, Round{4096, 1}}) {
    parked.clear();
    std::vector<int> responses(round.calls, 0);
    std::vector<Response> last(round.calls);
    int resent = 0;  // responses to the call sent from the timeout callback
    for (std::size_t i = 0; i < round.calls; ++i) {
      m.call(a, "svc", 0, [&, i](const Response& r) {
        ++responses[i];
        last[i] = r;
        if (i == 0) m.call(a, "svc", 0, [&](const Response&) { ++resent; });
      });
      sim.run_until(sim.now() + 1e-4);  // distinct deadlines
    }
    ASSERT_EQ(parked.size(), round.calls);
    // Answer everything behind the prefix before the first deadline.
    for (std::size_t i = round.stuck; i < round.calls; ++i) {
      parked[i](Outcome{true});
    }
    sim.run_until(sim.now() + 0.01);
    EXPECT_EQ(proxy.live_calls(), round.calls);  // all held by the store
    // Past every deadline: the prefix times out, the rest drain.
    sim.run_until(sim.now() + 1.5);
    for (std::size_t i = 0; i < round.calls; ++i) {
      ASSERT_EQ(responses[i], 1) << "call " << i;
      if (i < round.stuck) {
        EXPECT_TRUE(last[i].timed_out) << "call " << i;
        EXPECT_FALSE(last[i].success);
        EXPECT_EQ(last[i].latency, config.request_timeout);  // bit for bit
      } else {
        EXPECT_FALSE(last[i].timed_out) << "call " << i;
        EXPECT_TRUE(last[i].success);
      }
    }
    // The prefix's response chains and the re-sent call still hold slots.
    ASSERT_EQ(parked.size(), round.calls + 1);
    EXPECT_EQ(proxy.live_calls(), round.stuck + 1);
    // The late answers settle the prefix without a second response.
    for (std::size_t i = 0; i < round.stuck; ++i) parked[i](Outcome{true});
    parked.back()(Outcome{true});
    sim.run_until(sim.now() + 0.01);
    for (const int n : responses) EXPECT_EQ(n, 1);
    EXPECT_EQ(resent, 1);
    EXPECT_EQ(proxy.live_calls(), 0u);
  }
}

TEST_F(ProxyTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator s;
    Mesh m(s, SplitRng(seed), make_config());
    const auto a = m.add_cluster("a");
    const auto b = m.add_cluster("b");
    for (ClusterId c : {a, b}) {
      m.deploy("svc", c, {},
               std::make_unique<FixedLatencyBehavior>(0.01, 0.05));
    }
    double sum = 0.0;
    for (int i = 0; i < 100; ++i) {
      m.call(a, "svc", 0, [&](const Response& r) { sum += r.latency; });
    }
    s.run_until(30.0);
    return sum;
  };
  EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

}  // namespace
}  // namespace l3::mesh
