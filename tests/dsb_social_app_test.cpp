// Tests for the social-network application model and the generic staged
// behaviors it is built from.
#include "l3/dsb/social_app.h"

#include "l3/dsb/behaviors.h"
#include "l3/dsb/runner.h"

#include <gtest/gtest.h>

#include <memory>

namespace l3::dsb {
namespace {

class SocialAppTest : public ::testing::Test {
 protected:
  SocialAppTest() : rng(51), mesh(sim, rng) {
    clusters = {mesh.add_cluster("c1"), mesh.add_cluster("c2"),
                mesh.add_cluster("c3")};
  }

  sim::Simulator sim;
  SplitRng rng;
  mesh::Mesh mesh;
  std::vector<mesh::ClusterId> clusters;
};

TEST_F(SocialAppTest, DeploysEveryServiceEverywhere) {
  SocialNetworkApp app(mesh, clusters, {});
  app.deploy();
  for (const auto& service : SocialNetworkApp::service_names()) {
    for (mesh::ClusterId c : clusters) {
      EXPECT_NE(mesh.find_deployment(service, c), nullptr)
          << service << "@" << c;
    }
  }
  EXPECT_EQ(SocialNetworkApp::service_names().size(), 18u);
}

TEST_F(SocialAppTest, StatefulTiersNotMeshRouted) {
  SocialNetworkApp app(mesh, clusters, {});
  app.deploy();
  app.warm_routes();
  for (mesh::ClusterId c : clusters) {
    for (const auto& callee : SocialNetworkApp::callee_names()) {
      EXPECT_NE(mesh.find_split(c, callee), nullptr) << callee;
    }
    EXPECT_EQ(mesh.find_split(c, "redis-home-timeline"), nullptr);
    EXPECT_EQ(mesh.find_split(c, "mongodb-post"), nullptr);
  }
}

TEST_F(SocialAppTest, ComposePostTraversesDeepGraph) {
  SocialNetworkApp app(mesh, clusters, {});
  app.deploy();
  app.warm_routes();
  // Drive compose-post directly so the whole write path fires.
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    mesh.find_deployment("compose-post", clusters[0])
        ->handle(0, [&](const mesh::Outcome& o) {
          EXPECT_TRUE(o.success);
          ++completed;
        });
  }
  sim.run_until(60.0);
  EXPECT_EQ(completed, 100);
  std::uint64_t text = 0, post_storage = 0, shorten = 0, redis_ht = 0;
  for (mesh::ClusterId c : clusters) {
    text += mesh.find_deployment("text", c)->completed();
    post_storage += mesh.find_deployment("post-storage", c)->completed();
    shorten += mesh.find_deployment("url-shorten", c)->completed();
    redis_ht += mesh.find_deployment("redis-home-timeline", c)->completed();
  }
  EXPECT_EQ(text, 100u);          // every compose touches text
  EXPECT_EQ(shorten, 100u);       // text fans out to url-shorten
  EXPECT_GE(post_storage, 100u);  // compose + home-timeline reads
  EXPECT_EQ(redis_ht, 100u);      // home-timeline stage of every compose
}

TEST_F(SocialAppTest, ReadPathsAreShallowerThanCompose) {
  SocialNetworkApp app(mesh, clusters, {});
  app.deploy();
  app.warm_routes();
  SimTime read_done = 0.0, compose_done = 0.0;
  const SimTime start = sim.now();
  mesh.find_deployment("home-timeline", clusters[0])
      ->handle(0, [&](const mesh::Outcome&) { read_done = sim.now(); });
  mesh.find_deployment("compose-post", clusters[0])
      ->handle(0, [&](const mesh::Outcome&) { compose_done = sim.now(); });
  sim.run_until(30.0);
  EXPECT_GT(read_done, start);
  EXPECT_GT(compose_done, read_done);  // compose is the deep path
}

TEST(StagedBehavior, ProbabilityGatesCalls) {
  sim::Simulator sim;
  SplitRng rng(3);
  mesh::Mesh mesh(sim, rng);
  const auto c = mesh.add_cluster("c");
  ClusterLoadModel load(1);
  // Leaf + a behavior that calls it locally with probability 0.5.
  mesh.deploy("leaf", c, {},
              std::make_unique<StagedBehavior>(ServiceProfile{0.001, 0.002},
                                               load, 1.0,
                                               std::vector<Stage>{}));
  mesh.deploy("caller", c, {},
              std::make_unique<StagedBehavior>(
                  ServiceProfile{0.001, 0.002}, load, 1.0,
                  std::vector<Stage>{{Call{"leaf", true, 0.5}}}));
  for (int i = 0; i < 1000; ++i) {
    mesh.find_deployment("caller", c)->handle(0, [](const mesh::Outcome&) {});
  }
  sim.run_until(60.0);
  const auto leaf_calls = mesh.find_deployment("leaf", c)->completed();
  EXPECT_NEAR(static_cast<double>(leaf_calls), 500.0, 60.0);
}

TEST(MixBehavior, WeightsRespectedStatistically) {
  sim::Simulator sim;
  SplitRng rng(4);
  mesh::Mesh mesh(sim, rng);
  const auto c = mesh.add_cluster("c");
  ClusterLoadModel load(1);
  mesh.deploy("a", c, {},
              std::make_unique<StagedBehavior>(ServiceProfile{0.001, 0.002},
                                               load, 1.0,
                                               std::vector<Stage>{}));
  mesh.deploy("b", c, {},
              std::make_unique<StagedBehavior>(ServiceProfile{0.001, 0.002},
                                               load, 1.0,
                                               std::vector<Stage>{}));
  std::vector<Operation> ops;
  ops.push_back({0.8, {{Call{"a", true}}}});
  ops.push_back({0.2, {{Call{"b", true}}}});
  mesh.deploy("mix", c, {},
              std::make_unique<MixBehavior>(ServiceProfile{0.001, 0.002},
                                            load, 1.0, std::move(ops)));
  for (int i = 0; i < 2000; ++i) {
    mesh.find_deployment("mix", c)->handle(0, [](const mesh::Outcome&) {});
  }
  sim.run_until(120.0);
  // Denominator: operations that actually ran (a burst of 2000 overflows
  // the mix deployment's queues; rejected requests never pick an op).
  const double a_done =
      static_cast<double>(mesh.find_deployment("a", c)->completed());
  const double b_done =
      static_cast<double>(mesh.find_deployment("b", c)->completed());
  ASSERT_GT(a_done + b_done, 1500.0);
  EXPECT_NEAR(a_done / (a_done + b_done), 0.8, 0.04);
}

TEST(SocialRunner, EndToEndUnderAllPolicies) {
  DsbRunnerConfig config;
  config.warmup = 20.0;
  config.duration = 60.0;
  config.rps = 50.0;
  for (const auto kind :
       {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kL3}) {
    const auto r = run_social_network(kind, config);
    EXPECT_NEAR(static_cast<double>(r.requests), 3000.0, 60.0);
    EXPECT_GT(r.summary.latency.p50, 0.003);
    EXPECT_LT(r.summary.latency.p50, 0.300);
    EXPECT_DOUBLE_EQ(r.summary.success_rate, 1.0);
    EXPECT_EQ(r.scenario, "social-network");
  }
}

}  // namespace
}  // namespace l3::dsb
