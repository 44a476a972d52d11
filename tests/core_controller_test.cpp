// Tests for the L3 controller: the metrics→EWMA→policy→control-plane loop,
// §4 defaults, staleness convergence, introspection, and follower mode.
#include "l3/core/controller.h"

#include "l3/lb/l3_policy.h"
#include "l3/lb/policy.h"
#include "l3/mesh/mesh.h"
#include "l3/mesh/metric_names.h"
#include "l3/metrics/scraper.h"
#include "l3/workload/client.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace l3::core {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : rng(21), mesh(sim, rng, make_mesh_config()) {
    c1 = mesh.add_cluster("c1");
    c2 = mesh.add_cluster("c2");
    c3 = mesh.add_cluster("c3");
  }

  static mesh::MeshConfig make_mesh_config() {
    mesh::MeshConfig config;
    config.local_delay = 0.0002;
    return config;
  }

  /// Deploys "svc" with the given per-cluster latencies and starts a
  /// scraper, controller and client.
  void start_stack(std::vector<SimDuration> medians,
                   std::unique_ptr<lb::LoadBalancingPolicy> policy,
                   ControllerConfig config = {}, double rps = 200.0,
                   double success = 1.0) {
    for (std::size_t i = 0; i < 3; ++i) {
      mesh.deploy("svc", static_cast<mesh::ClusterId>(i), {},
                  std::make_unique<mesh::FixedLatencyBehavior>(
                      medians[i], medians[i] * 4.0, success));
    }
    mesh.proxy(c1, "svc");
    scraper = std::make_unique<metrics::Scraper>(sim, tsdb);
    scraper->add_target("c1", mesh.registry(c1));
    scraper->start(5.0);
    controller = std::make_unique<L3Controller>(mesh, tsdb, c1,
                                                std::move(policy), config);
    controller->manage_all();
    controller->start();
    client = std::make_unique<workload::OpenLoopClient>(
        mesh, c1, "svc", [rps](SimTime) { return rps; }, rng.split("client"));
    client->start(0.0, 1e9);
  }

  sim::Simulator sim;
  SplitRng rng;
  mesh::Mesh mesh;
  metrics::TimeSeriesDb tsdb;
  std::unique_ptr<metrics::Scraper> scraper;
  std::unique_ptr<L3Controller> controller;
  std::unique_ptr<workload::OpenLoopClient> client;
  mesh::ClusterId c1 = 0, c2 = 0, c3 = 0;
};

TEST_F(ControllerTest, ShiftsWeightTowardFastBackend) {
  start_stack({0.020, 0.200, 0.200}, std::make_unique<lb::L3Policy>());
  sim.run_until(120.0);
  const auto weights = mesh.find_split(c1, "svc")->weights();
  EXPECT_GT(weights[0], weights[1] * 2);
  EXPECT_GT(weights[0], weights[2] * 2);
}

TEST_F(ControllerTest, SteadyStateReusesScrapePlan) {
  // Once the registry's series exist, every scrape reuses the columnar
  // plan. A plan rebuilt per scrape shows up as new rebuilds here.
  start_stack({0.020, 0.200, 0.200}, std::make_unique<lb::L3Policy>());
  sim.run_until(60.0);
  const auto plans = scraper->plan_rebuilds();
  sim.run_until(180.0);
  EXPECT_EQ(scraper->plan_rebuilds(), plans);
}

TEST_F(ControllerTest, RoundRobinPolicyKeepsEqualWeights) {
  start_stack({0.020, 0.200, 0.200}, std::make_unique<lb::RoundRobinPolicy>());
  sim.run_until(60.0);
  const auto weights = mesh.find_split(c1, "svc")->weights();
  EXPECT_EQ(weights[0], weights[1]);
  EXPECT_EQ(weights[1], weights[2]);
}

TEST_F(ControllerTest, EwmaDefaultsBeforeTraffic) {
  // §4: latency default 5 s, success 100 %, RPS 0.
  start_stack({0.020, 0.020, 0.020}, std::make_unique<lb::L3Policy>());
  const auto snapshot = controller->snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].backends.size(), 3u);
  for (const auto& b : snapshot[0].backends) {
    EXPECT_DOUBLE_EQ(b.latency_p99, 5.0);
    EXPECT_DOUBLE_EQ(b.success_rate, 1.0);
    EXPECT_DOUBLE_EQ(b.rps, 0.0);
  }
}

TEST_F(ControllerTest, FiltersTrackObservedSignals) {
  start_stack({0.050, 0.050, 0.050}, std::make_unique<lb::L3Policy>());
  sim.run_until(90.0);
  const auto snapshot = controller->snapshot();
  for (const auto& b : snapshot[0].backends) {
    EXPECT_LT(b.latency_p99, 1.0);   // converged from 5 s default
    EXPECT_GT(b.latency_p99, 0.02);  // to something near the true ~0.2 s P99
    EXPECT_GT(b.rps, 20.0);          // ~200/3 per backend
    EXPECT_NEAR(b.success_rate, 1.0, 0.01);
  }
  EXPECT_NEAR(snapshot[0].total_rps_last, 200.0, 30.0);
}

TEST_F(ControllerTest, StaleBackendConvergesTowardDefault) {
  ControllerConfig config;
  start_stack({0.020, 0.020, 0.020}, std::make_unique<lb::L3Policy>(),
              config);
  sim.run_until(60.0);
  // Cut all traffic: stop the client by running a fresh controller-only
  // phase — simplest is to stop scraping new per-backend data by stopping
  // the client. OpenLoopClient has no stop; emulate by disabling scrapes.
  // Instead: verify the converge path via a backend that gets no traffic
  // because its weight is zero.
  auto* split = mesh.find_split(c1, "svc");
  controller->set_active(false);  // freeze weights
  split->set_weights(std::vector<std::uint64_t>{1, 1, 0});  // starve backend 3
  sim.run_until(160.0);
  const auto snapshot = controller->snapshot();
  // Backend 3 has seen no traffic for ~100 s: its latency filter must have
  // converged back toward the 5 s default.
  EXPECT_GT(snapshot[0].backends[2].latency_p99, 2.0);
  // The others still track reality.
  EXPECT_LT(snapshot[0].backends[0].latency_p99, 1.0);
}

TEST_F(ControllerTest, StalenessBoundaryFreezesThenConverges) {
  // §4 degraded-metrics semantics, regression for the boundary: during a
  // scrape gap SHORTER than the staleness threshold (10 s) the filtered
  // signals freeze at their last value; from the threshold onward —
  // inclusive — they converge toward the defaults. The old `>` comparison
  // silently granted one extra frozen control tick (a 10 s gap on a 5 s
  // cadence only started converging at 15 s).
  start_stack({0.020, 0.020, 0.020}, std::make_unique<lb::L3Policy>());
  sim.run_until(62.0);  // past the tick + scrape at t = 60

  // Total scrape outage: the registry keeps counting, the TSDB goes dark.
  scraper->set_all_targets_enabled(false);

  // Tick at 65 still sees data (the 10 s query window reaches the t = 60
  // scrape); the gap starts there: frozen at 70 (gap 5), converging at 75
  // (gap 10, the inclusive boundary).
  sim.run_until(67.0);
  const double with_data = controller->snapshot()[0].backends[0].latency_p99;
  sim.run_until(72.0);
  const double frozen = controller->snapshot()[0].backends[0].latency_p99;
  EXPECT_DOUBLE_EQ(frozen, with_data) << "gap below threshold must freeze";
  sim.run_until(77.0);
  const double converging = controller->snapshot()[0].backends[0].latency_p99;
  EXPECT_GT(converging, frozen)
      << "gap at exactly the threshold must start converging to the 5 s "
         "default";

  // And with the outage lifted the filters track reality again.
  scraper->set_all_targets_enabled(true);
  sim.run_until(140.0);
  EXPECT_LT(controller->snapshot()[0].backends[0].latency_p99, 1.0);
}

TEST_F(ControllerTest, NeverScrapedBackendHoldsDefaultsWithoutSampleNoise) {
  // A split managed with no traffic at all: the staleness clock starts at
  // manage() time (last_data == 0 used to trip the threshold on the very
  // first tick) and converge-to-default must hold the filters exactly at
  // the §4 defaults without ever inventing samples.
  for (std::size_t i = 0; i < 3; ++i) {
    mesh.deploy("svc", static_cast<mesh::ClusterId>(i), {},
                std::make_unique<mesh::FixedLatencyBehavior>(0.02, 0.08));
  }
  mesh.proxy(c1, "svc");
  scraper = std::make_unique<metrics::Scraper>(sim, tsdb);
  scraper->add_target("c1", mesh.registry(c1));
  scraper->start(5.0);
  sim.run_until(50.0);
  controller = std::make_unique<L3Controller>(
      mesh, tsdb, c1, std::make_unique<lb::L3Policy>(), ControllerConfig{});
  controller->manage_all();
  controller->start();
  sim.run_until(120.0);
  const auto snapshot = controller->snapshot();
  for (const auto& backend : snapshot[0].backends) {
    EXPECT_DOUBLE_EQ(backend.latency_p99, 5.0);  // §4 defaults, untouched
    EXPECT_DOUBLE_EQ(backend.success_rate, 1.0);
    EXPECT_DOUBLE_EQ(backend.rps, 0.0);
  }
  EXPECT_GT(controller->ticks(), 0u);
}

TEST_F(ControllerTest, InactiveControllerDoesNotTouchWeights) {
  start_stack({0.020, 0.200, 0.200}, std::make_unique<lb::L3Policy>());
  controller->set_active(false);
  const auto before = mesh.find_split(c1, "svc")->generation();
  sim.run_until(60.0);
  EXPECT_EQ(mesh.find_split(c1, "svc")->generation(), before);
  EXPECT_GT(controller->ticks(), 0u);  // still filtering
}

TEST_F(ControllerTest, PausedControllerExportsTheSplitsWeights) {
  // A paused controller (follower mode, chaos controller_pause) still
  // computes weights but applies none, so its weight gauge and snapshot
  // must report the split's weights, not the ones it never pushed.
  start_stack({0.020, 0.200, 0.200}, std::make_unique<lb::L3Policy>());
  mesh::TrafficSplit& split = *mesh.find_split(c1, "svc");
  const std::vector<std::uint64_t> pinned = {200, 300, 500};
  split.set_weights(pinned);
  controller->set_active(false);
  sim.run_until(60.0);
  ASSERT_EQ(split.weights(), pinned);

  // Not vacuous: the latencies differ, so the last computed weights differ
  // from the pinned ones.
  const trace::DecisionEvent* last = controller->journal().latest("svc");
  ASSERT_NE(last, nullptr);
  EXPECT_FALSE(last->applied);
  EXPECT_NE(last->backends[0].applied_weight, pinned[0]);

  auto& registry = mesh.registry(c1);
  const auto snapshot = controller->snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].backends.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const auto& backend = snapshot[0].backends[i];
    const auto labels =
        mesh::metric_names::backend_labels("svc", "c1", backend.dst_cluster);
    EXPECT_EQ(registry.gauge("l3_backend_weight", labels).value(),
              static_cast<double>(pinned[i]))
        << backend.dst_cluster;
    EXPECT_EQ(backend.weight, pinned[i]) << backend.dst_cluster;
  }
}

TEST_F(ControllerTest, IntrospectionGaugesExported) {
  start_stack({0.020, 0.100, 0.100}, std::make_unique<lb::L3Policy>());
  sim.run_until(30.0);
  auto& registry = mesh.registry(c1);
  const auto labels = mesh::metric_names::backend_labels("svc", "c1", "c1");
  EXPECT_GT(registry.gauge("l3_backend_weight", labels).value(), 0.0);
  EXPECT_GT(registry.gauge("l3_backend_latency_p99_ewma", labels).value(),
            0.0);
}

TEST_F(ControllerTest, QuantileChoiceConfigurable) {
  // §3.1: other percentiles (98th, 99.9th) are supported configurations.
  ControllerConfig config;
  config.quantile = 0.98;
  start_stack({0.020, 0.200, 0.200}, std::make_unique<lb::L3Policy>(),
              config);
  sim.run_until(90.0);
  const auto weights = mesh.find_split(c1, "svc")->weights();
  EXPECT_GT(weights[0], weights[1]);
}

TEST_F(ControllerTest, DynamicPenaltyHookReceivesFailureLatency) {
  ControllerConfig config;
  config.dynamic_penalty = true;
  double observed = -1.0;
  start_stack({0.050, 0.050, 0.050}, std::make_unique<lb::L3Policy>(),
              config, 200.0, /*success=*/0.7);
  controller->set_penalty_hook([&](double p) { observed = p; });
  sim.run_until(60.0);
  EXPECT_GT(observed, 0.0);  // failures exist → filtered failure RTT flows
  EXPECT_LT(observed, 5.0);
}

TEST_F(ControllerTest, ManageRejectsForeignSplit) {
  start_stack({0.020, 0.020, 0.020}, std::make_unique<lb::L3Policy>());
  mesh.proxy(c2, "svc");  // a cluster-2 split
  auto* foreign = mesh.find_split(c2, "svc");
  ASSERT_NE(foreign, nullptr);
  EXPECT_THROW(controller->manage(*foreign), ContractViolation);
}

TEST_F(ControllerTest, RejectsStoreShorterThanQueryWindow) {
  // A store that forgets samples inside the query window would silently
  // shorten every rate and quantile the controller reads.
  const ControllerConfig config;
  metrics::TimeSeriesDb short_store(config.query_window / 2.0);
  EXPECT_THROW(L3Controller(mesh, short_store, c1,
                            std::make_unique<lb::L3Policy>(), config),
               ContractViolation);
  metrics::TimeSeriesDb window_store(config.query_window);
  EXPECT_NO_THROW(L3Controller(mesh, window_store, c1,
                               std::make_unique<lb::L3Policy>(), config));
}

TEST_F(ControllerTest, ManageAllIsIdempotent) {
  start_stack({0.020, 0.020, 0.020}, std::make_unique<lb::L3Policy>());
  controller->manage_all();
  controller->manage_all();
  EXPECT_EQ(controller->snapshot().size(), 1u);
}

}  // namespace
}  // namespace l3::core
