// Tests for the data-plane proxy cost model (DESIGN.md §16): the per-edge
// connection pool (handshake / reuse / idle expiry / churn), the bounded-
// concurrency CPU service stage, the proxy integration (cost delay folded
// into the outbound leg, exactly-once connection release), and the
// zero-cost byte-identity contract through the scenario runner.
#include "l3/mesh/proxy_cost.h"

#include "l3/lb/weighting.h"
#include "l3/mesh/mesh.h"
#include "l3/workload/runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace l3::mesh {
namespace {

ProxyCostConfig small_pool_config() {
  ProxyCostConfig config;
  config.cpu_per_request = 0.001;
  config.handshake_cost = 0.005;
  config.concurrency = 2;
  config.pool_size = 2;
  config.idle_timeout = 10.0;
  return config;
}

TEST(ConnectionPool, FirstCheckoutPaysHandshakeReuseIsFree) {
  const ProxyCostConfig config = small_pool_config();
  EdgeConnectionPool pool;
  auto first = pool.checkout(0.0);
  EXPECT_TRUE(first.handshake);
  EXPECT_EQ(first.expired, 0u);
  EXPECT_FALSE(pool.release(1.0, /*close=*/false, config));
  EXPECT_EQ(pool.idle(), 1u);
  auto second = pool.checkout(2.0);
  EXPECT_FALSE(second.handshake);  // warm connection reused
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(ConnectionPool, IdleConnectionsExpire) {
  const ProxyCostConfig config = small_pool_config();  // idle_timeout 10
  EdgeConnectionPool pool;
  pool.checkout(0.0);
  pool.release(1.0, false, config);  // idle until 11
  auto hit = pool.checkout(10.9);
  EXPECT_FALSE(hit.handshake);
  pool.release(10.9, false, config);  // idle until 20.9
  auto miss = pool.checkout(21.0);
  EXPECT_TRUE(miss.handshake);  // the parked connection expired
  EXPECT_EQ(miss.expired, 1u);
}

TEST(ConnectionPool, PoolSizeBoundsIdleListAndOverflowCloses) {
  const ProxyCostConfig config = small_pool_config();  // pool_size 2
  EdgeConnectionPool pool;
  for (int i = 0; i < 3; ++i) pool.checkout(0.0);
  EXPECT_FALSE(pool.release(1.0, false, config));
  EXPECT_FALSE(pool.release(1.0, false, config));
  EXPECT_TRUE(pool.release(1.0, false, config));  // idle list full → closed
  EXPECT_EQ(pool.idle(), 2u);
}

TEST(ConnectionPool, TimeoutClosesInsteadOfParking) {
  const ProxyCostConfig config = small_pool_config();
  EdgeConnectionPool pool;
  pool.checkout(0.0);
  EXPECT_TRUE(pool.release(1.0, /*close=*/true, config));  // churn
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_TRUE(pool.checkout(2.0).handshake);  // next request pays again
}

TEST(ConnectionPool, ReuseIsMostRecentlyReleasedFirst) {
  const ProxyCostConfig config = small_pool_config();  // idle_timeout 10
  EdgeConnectionPool pool;
  pool.checkout(0.0);
  pool.checkout(0.0);
  pool.release(1.0, false, config);  // expires at 11
  pool.release(5.0, false, config);  // expires at 15
  // At t=12 the older idle connection has expired; the MRU one is live.
  auto checkout = pool.checkout(12.0);
  EXPECT_FALSE(checkout.handshake);
  EXPECT_EQ(checkout.expired, 1u);
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(ConnectionPool, CpuStageQueuesBeyondConcurrency) {
  ProxyCpuStage stage;
  stage.configure(2);
  // Three admissions at t=0, 1 s service each: two run, the third waits.
  EXPECT_DOUBLE_EQ(stage.admit(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(stage.admit(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(stage.admit(0.0, 1.0), 2.0);
  EXPECT_EQ(stage.busy(0.5), 2u);
  // After the backlog drains, admission is immediate again.
  EXPECT_DOUBLE_EQ(stage.admit(5.0, 1.0), 6.0);
}

TEST(ConnectionPool, CostStatsHitRate) {
  ProxyCostStats stats;
  EXPECT_DOUBLE_EQ(stats.pool_hit_rate(), 1.0);
  stats.handshakes = 1;
  stats.pool_hits = 3;
  EXPECT_DOUBLE_EQ(stats.pool_hit_rate(), 0.75);
}

// ---------------------------------------------------------------------------
// Proxy integration.

/// Deterministic service behavior: exactly `latency` seconds, always
/// succeeds, draws no RNG — so response latencies are exact sums of the
/// behavior time and the cost-model delay.
class ConstLatencyBehavior final : public ServiceBehavior {
 public:
  explicit ConstLatencyBehavior(SimDuration latency) : latency_(latency) {}
  void invoke(const BehaviorContext& ctx, OutcomeFn done) override {
    ctx.sim.schedule_after(
        latency_, [done = std::move(done)]() mutable { done(Outcome{true}); });
  }

 private:
  SimDuration latency_;
};

class ProxyCostTest : public ::testing::Test {
 protected:
  /// Single-cluster mesh config with zero network delay so the response
  /// latency is exactly behavior latency + cost-model delay.
  static MeshConfig cost_mesh_config(ProxyCostConfig cost,
                                     SimDuration timeout = 30.0) {
    MeshConfig config;
    config.local_delay = 0.0;
    config.local_jitter_frac = 0.0;
    config.health_probe_interval = 0.0;
    config.request_timeout = timeout;
    config.proxy_cost = cost;
    return config;
  }

  sim::Simulator sim;
};

TEST_F(ProxyCostTest, ProxyCostAddsHandshakeAndCpuToLatency) {
  ProxyCostConfig cost;
  cost.cpu_per_request = 0.002;
  cost.handshake_cost = 0.010;
  cost.concurrency = 4;
  Mesh mesh(sim, SplitRng(7), cost_mesh_config(cost));
  const auto c = mesh.add_cluster("c1");
  mesh.deploy("svc", c, {}, std::make_unique<ConstLatencyBehavior>(0.100));
  Proxy& proxy = mesh.proxy(c, "svc");

  std::vector<double> latencies;
  auto call_once = [&] {
    mesh.call(c, "svc", 0,
              [&](const Response& r) { latencies.push_back(r.latency); });
    sim.run_until(sim.now() + 1.0);
  };
  call_once();  // cold edge: handshake + cpu + behavior
  call_once();  // warm edge: cpu + behavior
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_NEAR(latencies[0], 0.100 + 0.002 + 0.010, 1e-9);
  EXPECT_NEAR(latencies[1], 0.100 + 0.002, 1e-9);
  EXPECT_EQ(proxy.cost_stats().handshakes, 1u);
  EXPECT_EQ(proxy.cost_stats().pool_hits, 1u);
  EXPECT_EQ(proxy.idle_connections(0), 1u);
}

TEST_F(ProxyCostTest, ProxyCostSaturationQueuesAndIsVisibleInLatency) {
  ProxyCostConfig cost;
  cost.cpu_per_request = 0.010;
  cost.concurrency = 1;
  cost.pool_size = 64;
  Mesh mesh(sim, SplitRng(7), cost_mesh_config(cost));
  const auto c = mesh.add_cluster("c1");
  mesh.deploy("svc", c, {.replicas = 4, .concurrency = 64},
              std::make_unique<ConstLatencyBehavior>(0.001));
  Proxy& proxy = mesh.proxy(c, "svc");

  // A burst of 10 requests at t=0 through a 1-worker 10 ms stage: request
  // k starts its CPU service at k×10 ms — the proxy tier, not the backend,
  // sets the latency.
  std::vector<double> latencies(10, 0.0);
  for (int i = 0; i < 10; ++i) {
    mesh.call(c, "svc", 0,
              [&latencies, i](const Response& r) { latencies[i] = r.latency; });
  }
  sim.run_until(5.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(latencies[i], 0.010 * (i + 1) + 0.001, 1e-9) << "req " << i;
  }
  EXPECT_EQ(proxy.cost_stats().queued, 9u);
  EXPECT_NEAR(proxy.cost_stats().queue_delay_max, 0.090, 1e-9);
  EXPECT_NEAR(proxy.cost_stats().cpu_busy_total, 0.100, 1e-9);
}

TEST_F(ProxyCostTest, ProxyCostIdleExpiryCausesHandshakeStorm) {
  ProxyCostConfig cost;
  cost.cpu_per_request = 0.001;
  cost.handshake_cost = 0.005;
  cost.concurrency = 8;
  cost.pool_size = 8;
  cost.idle_timeout = 2.0;
  Mesh mesh(sim, SplitRng(7), cost_mesh_config(cost));
  const auto c = mesh.add_cluster("c1");
  mesh.deploy("svc", c, {.replicas = 2, .concurrency = 16},
              std::make_unique<ConstLatencyBehavior>(0.010));
  Proxy& proxy = mesh.proxy(c, "svc");

  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      mesh.call(c, "svc", 0, [](const Response&) {});
    }
    sim.run_until(sim.now() + 1.0);
  };
  burst(6);  // six overlapping requests → six handshakes, six parked conns
  const std::uint64_t first_wave = proxy.cost_stats().handshakes;
  EXPECT_EQ(first_wave, 6u);
  burst(6);  // warm pool → no new handshakes
  EXPECT_EQ(proxy.cost_stats().handshakes, first_wave);
  EXPECT_GE(proxy.cost_stats().pool_hits, 6u);
  // Traffic moves away for longer than idle_timeout, then returns: the
  // warm pool expired, so the returning burst pays handshakes again.
  sim.run_until(sim.now() + 5.0);
  burst(6);
  EXPECT_EQ(proxy.cost_stats().handshakes, first_wave + 6);
  EXPECT_GE(proxy.cost_stats().expired, 6u);
}

TEST_F(ProxyCostTest, ProxyCostTimeoutChurnsConnection) {
  ProxyCostConfig cost;
  cost.cpu_per_request = 0.001;
  cost.handshake_cost = 0.005;
  Mesh mesh(sim, SplitRng(7), cost_mesh_config(cost, /*timeout=*/1.0));
  const auto c = mesh.add_cluster("c1");
  // Behavior latency far beyond the 1 s client timeout.
  mesh.deploy("svc", c, {}, std::make_unique<ConstLatencyBehavior>(5.0));
  Proxy& proxy = mesh.proxy(c, "svc");

  bool timed_out = false;
  mesh.call(c, "svc", 0, [&](const Response& r) { timed_out = r.timed_out; });
  sim.run_until(10.0);  // timeout at 1 s; the late response lands at ~5 s
  EXPECT_TRUE(timed_out);
  // The timed-out call tore its connection down instead of parking it.
  EXPECT_EQ(proxy.cost_stats().closed, 1u);
  EXPECT_EQ(proxy.idle_connections(0), 0u);
  EXPECT_EQ(proxy.cost_stats().handshakes, 1u);
}

TEST_F(ProxyCostTest, ProxyCostDisabledKeepsNoState) {
  ProxyCostConfig cost;  // zero-cost defaults
  ASSERT_FALSE(cost.enabled());
  Mesh mesh(sim, SplitRng(7), cost_mesh_config(cost));
  const auto c = mesh.add_cluster("c1");
  mesh.deploy("svc", c, {}, std::make_unique<ConstLatencyBehavior>(0.010));
  Proxy& proxy = mesh.proxy(c, "svc");
  for (int i = 0; i < 20; ++i) {
    mesh.call(c, "svc", 0, [](const Response&) {});
  }
  sim.run_until(5.0);
  EXPECT_EQ(proxy.cost_stats().handshakes, 0u);
  EXPECT_EQ(proxy.cost_stats().pool_hits, 0u);
  EXPECT_EQ(proxy.cost_stats().cpu_busy_total, 0.0);
  EXPECT_EQ(proxy.idle_connections(0), 0u);
}

TEST_F(ProxyCostTest, AuditFamiliesRegisteredOnlyWhenEnabled) {
  // The audit surface is low-cardinality Prometheus families per proxy
  // ({split, src}); per-request detail stays in the obs RT rings. A
  // zero-cost mesh must not register the families at all (the registry —
  // and every scrape derived from it — is part of the byte-identity
  // contract).
  auto count_family = [](metrics::Registry& registry, const char* name) {
    std::size_t n = 0;
    registry.for_each(
        [&](const std::string& key, double) {
          if (key.find(name) != std::string::npos) ++n;
        },
        [](const std::string&, double) {},
        [](const std::string&, const metrics::HistogramSeries&) {});
    return n;
  };

  ProxyCostConfig cost;
  cost.cpu_per_request = 0.001;
  cost.handshake_cost = 0.005;
  Mesh costed(sim, SplitRng(7), cost_mesh_config(cost));
  const auto c = costed.add_cluster("c1");
  costed.deploy("svc", c, {}, std::make_unique<ConstLatencyBehavior>(0.010));
  costed.call(c, "svc", 0, [](const Response&) {});
  sim.run_until(1.0);
  EXPECT_EQ(count_family(costed.registry(c), "proxy_handshake_total"), 1u);
  EXPECT_EQ(count_family(costed.registry(c), "proxy_pool_hit_total"), 1u);
  EXPECT_EQ(count_family(costed.registry(c), "proxy_conn_close_total"), 1u);

  sim::Simulator sim2;
  Mesh plain(sim2, SplitRng(7), cost_mesh_config(ProxyCostConfig{}));
  const auto c2 = plain.add_cluster("c1");
  plain.deploy("svc", c2, {}, std::make_unique<ConstLatencyBehavior>(0.010));
  plain.call(c2, "svc", 0, [](const Response&) {});
  sim2.run_until(1.0);
  EXPECT_EQ(count_family(plain.registry(c2), "proxy_handshake_total"), 0u);
  EXPECT_EQ(count_family(plain.registry(c2), "proxy_pool_hit_total"), 0u);
  EXPECT_EQ(count_family(plain.registry(c2), "proxy_conn_close_total"), 0u);
}

// ---------------------------------------------------------------------------
// Runner-level contracts.

workload::ScenarioTrace uniform_trace(double median, double rps,
                                      SimDuration duration) {
  workload::ScenarioTrace trace("cost", 3, duration);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t s = 0; s < trace.steps(); ++s) {
      trace.at(c, s) = workload::TracePoint{median, median * 4.0, 1.0};
    }
  }
  for (std::size_t s = 0; s < trace.steps(); ++s) trace.set_rps(s, rps);
  return trace;
}

TEST(ProxyCostRunner, ZeroCostDefaultsAreByteIdentical) {
  // Non-zero pool knobs with zero cpu/handshake keep the model disabled:
  // the run must be bit-for-bit the run without any cost config.
  const auto trace = uniform_trace(0.040, 80.0, 120.0);
  workload::RunnerConfig base;
  base.warmup = 30.0;
  const auto plain = run_scenario(trace, workload::PolicyKind::kL3, base);

  workload::RunnerConfig zero = base;
  zero.proxy_cost.pool_size = 64;      // non-default, but still zero-cost
  zero.proxy_cost.idle_timeout = 1.0;  // ditto
  zero.proxy_cost.concurrency = 1;     // ditto
  ASSERT_FALSE(zero.proxy_cost.enabled());
  const auto same = run_scenario(trace, workload::PolicyKind::kL3, zero);

  EXPECT_EQ(plain.requests, same.requests);
  EXPECT_EQ(plain.summary.latency.p50, same.summary.latency.p50);
  EXPECT_EQ(plain.summary.latency.p99, same.summary.latency.p99);
  EXPECT_EQ(plain.summary.success_rate, same.summary.success_rate);
  EXPECT_EQ(plain.weight_updates, same.weight_updates);
  EXPECT_EQ(plain.traffic_share, same.traffic_share);
  EXPECT_EQ(same.proxy_cost_stats.handshakes, 0u);
}

TEST(ProxyCostRunner, CostedRunPaysHandshakesAndCpu) {
  const auto trace = uniform_trace(0.040, 80.0, 120.0);
  workload::RunnerConfig config;
  config.warmup = 30.0;
  config.proxy_cost.cpu_per_request = 0.0005;
  config.proxy_cost.handshake_cost = 0.002;
  config.proxy_cost.concurrency = 8;
  config.proxy_cost.pool_size = 16;
  const auto result = run_scenario(trace, workload::PolicyKind::kL3, config);
  EXPECT_GT(result.requests, 0u);
  EXPECT_GT(result.proxy_cost_stats.handshakes, 0u);
  EXPECT_GT(result.proxy_cost_stats.pool_hits, 0u);
  EXPECT_GT(result.proxy_cost_stats.cpu_busy_total, 0.0);
  // Pooling works: the vast majority of requests reuse warm connections.
  EXPECT_GT(result.proxy_cost_stats.pool_hit_rate(), 0.9);
}

TEST(ProxyCostRunner, SaturatedProxyCompressesL3ShareSkew) {
  // DESIGN.md §16: a near-saturated 1-worker proxy CPU stage (4.8 ms/req at
  // 200 rps, ρ ≈ 0.96) adds one common queueing delay to every backend, so
  // the per-backend latency ratios — and L3's weights and traffic shares —
  // compress toward uniform. Skew is max/mean share (1.0 = uniform).
  workload::ScenarioTrace trace("proxy-cost", 3, 60.0);
  const double medians[3] = {0.090, 0.030, 0.010};
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t s = 0; s < trace.steps(); ++s) {
      trace.at(c, s) = workload::TracePoint{medians[c], medians[c] * 3.0, 1.0};
    }
  }
  for (std::size_t s = 0; s < trace.steps(); ++s) trace.set_rps(s, 200.0);
  workload::RunnerConfig zero;
  zero.warmup = 30.0;
  zero.poisson_arrivals = true;
  workload::RunnerConfig costed = zero;
  costed.proxy_cost.cpu_per_request = 0.0048;
  costed.proxy_cost.concurrency = 1;
  costed.proxy_cost.handshake_cost = 0.002;
  costed.proxy_cost.pool_size = 16;
  costed.proxy_cost.idle_timeout = 30.0;

  const auto plain = run_scenario(trace, workload::PolicyKind::kL3, zero);
  const auto loaded = run_scenario(trace, workload::PolicyKind::kL3, costed);
  const double zero_skew = lb::weight_skew(plain.traffic_share);
  const double costed_skew = lb::weight_skew(loaded.traffic_share);
  ASSERT_GT(costed_skew, 1.0);
  EXPECT_GE((zero_skew - 1.0) / (costed_skew - 1.0), 1.5)
      << "zero skew " << zero_skew << ", costed skew " << costed_skew;
  EXPECT_GE(loaded.proxy_cost_stats.handshakes, 1u);
}

}  // namespace
}  // namespace l3::mesh
