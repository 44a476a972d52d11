// Tests for the DeathStarBench hotel-reservation model: topology, call
// graph reachability, disturbance model, and the end-to-end DSB runner.
#include "l3/dsb/hotel_app.h"

#include "l3/dsb/runner.h"
#include "l3/mesh/metric_names.h"
#include "l3/metrics/scraper.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace l3::dsb {
namespace {

TEST(ClusterLoadModel, DefaultsToNominal) {
  ClusterLoadModel model(3);
  for (mesh::ClusterId c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(model.factors(c).median, 1.0);
    EXPECT_DOUBLE_EQ(model.factors(c).tail, 1.0);
  }
}

TEST(ClusterLoadModel, RejectsSubNominalFactors) {
  ClusterLoadModel model(2);
  EXPECT_THROW(model.set_factors(0, {.median = 0.5, .tail = 1.0}),
               ContractViolation);
  EXPECT_THROW(model.set_factors(5, {}), ContractViolation);
}

TEST(PerformanceDisturber, RotatesAcrossClustersAndRecovers) {
  sim::Simulator sim;
  ClusterLoadModel model(3);
  PerformanceDisturber::Config config;
  config.period = 50.0;
  config.duration = 20.0;
  config.skip_prob = 0.0;
  PerformanceDisturber disturber(sim, model, config, SplitRng(1));
  disturber.start();

  sim.run_until(10.0);  // first window targets cluster 0
  EXPECT_GT(model.factors(0).tail, 1.0);
  EXPECT_DOUBLE_EQ(model.factors(1).tail, 1.0);

  sim.run_until(35.0);  // window over, recovery
  EXPECT_DOUBLE_EQ(model.factors(0).tail, 1.0);

  sim.run_until(60.0);  // second window targets cluster 1
  EXPECT_GT(model.factors(1).tail, 1.0);
  EXPECT_DOUBLE_EQ(model.factors(0).tail, 1.0);
  EXPECT_EQ(disturber.disturbances_started(), 2u);
}

TEST(PerformanceDisturber, TailFactorDominatesMedianFactor) {
  sim::Simulator sim;
  ClusterLoadModel model(3);
  PerformanceDisturber::Config config;
  config.skip_prob = 0.0;
  PerformanceDisturber disturber(sim, model, config, SplitRng(2));
  disturber.start();
  sim.run_until(100.0);
  bool saw = false;
  for (mesh::ClusterId c = 0; c < 3; ++c) {
    if (model.factors(c).tail > 1.0) {
      EXPECT_GT(model.factors(c).tail, model.factors(c).median);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

class HotelAppTest : public ::testing::Test {
 protected:
  HotelAppTest() : rng(9), mesh(sim, rng) {
    clusters = {mesh.add_cluster("c1"), mesh.add_cluster("c2"),
                mesh.add_cluster("c3")};
  }

  sim::Simulator sim;
  SplitRng rng;
  mesh::Mesh mesh;
  std::vector<mesh::ClusterId> clusters;
};

TEST_F(HotelAppTest, DeploysEveryServiceEverywhere) {
  HotelReservationApp app(mesh, clusters, {});
  app.deploy();
  for (const auto& service : HotelReservationApp::service_names()) {
    for (mesh::ClusterId c : clusters) {
      EXPECT_NE(mesh.find_deployment(service, c), nullptr)
          << service << "@" << c;
    }
  }
  // Eight application microservices + caches and databases.
  EXPECT_EQ(HotelReservationApp::service_names().size(), 17u);
}

TEST_F(HotelAppTest, WarmRoutesCreatesSplitsForMeshCallees) {
  HotelReservationApp app(mesh, clusters, {});
  app.deploy();
  app.warm_routes();
  for (mesh::ClusterId c : clusters) {
    for (const auto& callee : HotelReservationApp::callee_names()) {
      EXPECT_NE(mesh.find_split(c, callee), nullptr) << callee;
    }
    // Stateful tiers are NOT mesh-routed.
    EXPECT_EQ(mesh.find_split(c, "mongodb-user"), nullptr);
    EXPECT_EQ(mesh.find_split(c, "memcached-rate"), nullptr);
  }
}

TEST_F(HotelAppTest, FrontendRequestTraversesCallGraph) {
  HotelReservationApp app(mesh, clusters, {});
  app.deploy();
  app.warm_routes();
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    mesh.find_deployment("frontend", clusters[0])
        ->handle(0, [&](const mesh::Outcome& o) {
          EXPECT_TRUE(o.success);
          ++completed;
        });
  }
  sim.run_until(60.0);
  EXPECT_EQ(completed, 200);
  // The mix must have reached both the search path and the user path.
  std::uint64_t search_handled = 0;
  std::uint64_t user_handled = 0;
  for (mesh::ClusterId c : clusters) {
    search_handled += mesh.find_deployment("search", c)->completed();
    user_handled += mesh.find_deployment("user", c)->completed();
  }
  EXPECT_GT(search_handled, 50u);  // ~60 % of 200
  EXPECT_GT(user_handled, 5u);     // login + reserve ≈ 11 %
  // And the stateful tiers got local traffic.
  std::uint64_t mongo = 0;
  for (mesh::ClusterId c : clusters) {
    mongo += mesh.find_deployment("mongodb-geo", c)->completed();
  }
  EXPECT_GT(mongo, 0u);
}

TEST_F(HotelAppTest, FailuresPropagateUpTheGraph) {
  HotelAppConfig config;
  config.success_rate = 0.95;  // every hop can fail
  HotelReservationApp app(mesh, clusters, config);
  app.deploy();
  app.warm_routes();
  int failures = 0;
  const int total = 500;
  for (int i = 0; i < total; ++i) {
    mesh.find_deployment("frontend", clusters[0])
        ->handle(0, [&](const mesh::Outcome& o) {
          if (!o.success) ++failures;
        });
  }
  sim.run_until(120.0);
  // A search request touches ≥4 sampling points; end-to-end success is
  // well below 95 %.
  EXPECT_GT(failures, total / 20);
}

TEST(DsbRunner, ProducesPlausibleLatencies) {
  DsbRunnerConfig config;
  config.warmup = 20.0;
  config.duration = 60.0;
  config.rps = 50.0;
  const auto r = run_hotel_reservation(workload::PolicyKind::kRoundRobin,
                                       config);
  EXPECT_NEAR(static_cast<double>(r.requests), 3000.0, 60.0);
  EXPECT_GT(r.summary.latency.p50, 0.005);  // several hops of compute + net
  EXPECT_LT(r.summary.latency.p50, 0.200);
  EXPECT_GT(r.summary.latency.p99, r.summary.latency.p50);
  EXPECT_DOUBLE_EQ(r.summary.success_rate, 1.0);
  EXPECT_EQ(r.scenario, "hotel-reservation");
}

TEST(DsbRunner, DeterministicForSameSeed) {
  DsbRunnerConfig config;
  config.warmup = 10.0;
  config.duration = 30.0;
  config.rps = 30.0;
  const auto a = run_hotel_reservation(workload::PolicyKind::kL3, config);
  const auto b = run_hotel_reservation(workload::PolicyKind::kL3, config);
  EXPECT_DOUBLE_EQ(a.summary.latency.p99, b.summary.latency.p99);
  EXPECT_EQ(a.requests, b.requests);
}

TEST(DsbRunner, TrafficShareIsTheLocalFrontendsAndSumsToOne) {
  // The client calls the cluster-1 frontend directly, so every measured
  // request lands in cluster-1, and there are no retries.
  DsbRunnerConfig config;
  config.warmup = 10.0;
  config.duration = 30.0;
  config.rps = 30.0;
  const auto r = run_hotel_reservation(workload::PolicyKind::kL3, config);
  ASSERT_GT(r.requests, 0u);
  ASSERT_EQ(r.traffic_share.size(), 3u);
  double total = 0.0;
  for (const double s : r.traffic_share) total += s;
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_DOUBLE_EQ(r.traffic_share[0], 1.0);
  EXPECT_DOUBLE_EQ(r.mean_attempts, 1.0);
}

}  // namespace
}  // namespace l3::dsb
