// Tests for deployment elasticity and the HPA-style autoscaler.
#include "l3/mesh/autoscaler.h"

#include "l3/mesh/mesh.h"

#include "manual_behavior.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace l3::mesh {
namespace {

class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest() : rng(41), mesh(sim, rng) {
    cluster = mesh.add_cluster("c1");
  }

  /// Deploys a slow service with 1 replica × 4 slots.
  ServiceDeployment& deploy_slow() {
    return mesh.deploy(
        "svc", cluster,
        {.replicas = 1, .concurrency = 4, .queue_capacity = 4096},
        std::make_unique<FixedLatencyBehavior>(0.500, 0.501));
  }

  /// Keeps `inflight` requests outstanding by re-issuing on completion.
  void sustain_load(ServiceDeployment& d, int inflight) {
    for (int i = 0; i < inflight; ++i) {
      issue(d);
    }
  }

  void issue(ServiceDeployment& d) {
    d.handle(0, [this, &d](const Outcome& outcome) {
      if (!keep_going) return;
      if (outcome.rejected) {
        // All replicas crashed/down: rejections complete synchronously, so
        // re-issuing inline would recurse without bound. Back off instead.
        sim.schedule_after(0.050, [this, &d] {
          if (keep_going) issue(d);
        });
      } else {
        issue(d);
      }
    });
  }

  sim::Simulator sim;
  SplitRng rng;
  Mesh mesh;
  ClusterId cluster = 0;
  bool keep_going = true;
};

TEST_F(AutoscalerTest, DeploymentAddAndRemoveReplica) {
  auto& d = deploy_slow();
  EXPECT_EQ(d.replica_count(), 1u);
  EXPECT_EQ(d.total_concurrency(), 4u);
  d.add_replica();
  EXPECT_EQ(d.replica_count(), 2u);
  EXPECT_EQ(d.total_concurrency(), 8u);
  EXPECT_TRUE(d.remove_idle_replica());
  EXPECT_EQ(d.replica_count(), 1u);
  EXPECT_FALSE(d.remove_idle_replica());  // never below one replica
}

TEST_F(AutoscalerTest, BusyReplicaIsNotRemoved) {
  auto& d = deploy_slow();
  d.add_replica();
  sustain_load(d, 8);  // both replicas busy
  EXPECT_FALSE(d.remove_idle_replica());
  keep_going = false;
  sim.run_until(5.0);
}

TEST_F(AutoscalerTest, ScalesUpUnderOverloadAfterProvisioningDelay) {
  auto& d = deploy_slow();
  Autoscaler::Config config;
  config.interval = 5.0;
  config.provisioning_delay = 20.0;
  config.cooldown = 10.0;
  Autoscaler scaler(sim, config);
  scaler.watch(d);
  scaler.start();

  sustain_load(d, 16);  // 4 slots, 16 outstanding → utilisation 4x
  sim.run_until(6.0);   // first evaluation decided to scale
  EXPECT_EQ(scaler.scale_ups(), 1u);
  EXPECT_EQ(d.replica_count(), 1u);  // still provisioning
  sim.run_until(30.0);
  EXPECT_GE(d.replica_count(), 2u);  // replica came up
  keep_going = false;
  sim.run_until(40.0);
}

TEST_F(AutoscalerTest, CooldownLimitsActionRate) {
  auto& d = deploy_slow();
  Autoscaler::Config config;
  config.interval = 1.0;
  config.cooldown = 30.0;
  config.provisioning_delay = 1.0;
  Autoscaler scaler(sim, config);
  scaler.watch(d);
  scaler.start();
  sustain_load(d, 64);
  sim.run_until(25.0);
  EXPECT_EQ(scaler.scale_ups(), 1u);  // one action per cooldown window
  keep_going = false;
  sim.run_until(35.0);
}

TEST_F(AutoscalerTest, ScalesDownWhenIdle) {
  auto& d = deploy_slow();
  d.add_replica();
  d.add_replica();
  Autoscaler::Config config;
  config.interval = 5.0;
  config.cooldown = 5.0;
  config.min_replicas = 1;
  Autoscaler scaler(sim, config);
  scaler.watch(d);
  scaler.start();
  sim.run_until(60.0);  // no load at all
  EXPECT_EQ(d.replica_count(), 1u);
  EXPECT_GE(scaler.scale_downs(), 2u);
}

TEST_F(AutoscalerTest, RespectsMaxReplicas) {
  auto& d = deploy_slow();
  Autoscaler::Config config;
  config.interval = 1.0;
  config.cooldown = 1.0;
  config.provisioning_delay = 0.5;
  config.max_replicas = 3;
  Autoscaler scaler(sim, config);
  scaler.watch(d);
  scaler.start();
  sustain_load(d, 256);
  sim.run_until(120.0);
  EXPECT_LE(d.replica_count(), 3u);
  keep_going = false;
  sim.run_until(130.0);
}

TEST_F(AutoscalerTest, ScaleUpRestoresThroughput) {
  // Demand of ~16 concurrent requests against 4 slots: queueing dominates
  // until the autoscaler grows the deployment.
  auto& d = deploy_slow();
  Autoscaler::Config config;
  config.interval = 5.0;
  config.cooldown = 5.0;
  config.provisioning_delay = 10.0;
  Autoscaler scaler(sim, config);
  scaler.watch(d);
  scaler.start();
  sustain_load(d, 16);
  sim.run_until(200.0);
  EXPECT_GE(d.replica_count(), 4u);  // grew to fit the demand
  EXPECT_LE(static_cast<double>(d.load()) /
                static_cast<double>(d.total_concurrency()),
            1.1);
  keep_going = false;
  sim.run_until(210.0);
}

TEST_F(AutoscalerTest, ProvisioningEventOutlivingAutoscalerIsAbandoned) {
  // Regression: the provisioning callback used to capture a reference into
  // watched_ (plus the autoscaler itself) and schedule_after events cannot
  // be cancelled — destroying the autoscaler before the event fired made it
  // dereference freed memory (heap-use-after-free under ASan) and still
  // grow the deployment. The callback now holds a liveness token and
  // abandons the orphaned provisioning.
  auto& d = deploy_slow();
  {
    Autoscaler::Config config;
    config.interval = 1.0;
    config.cooldown = 30.0;
    config.provisioning_delay = 20.0;
    Autoscaler scaler(sim, config);
    scaler.watch(d);
    scaler.start();
    sustain_load(d, 16);
    sim.run_until(2.0);
    EXPECT_EQ(scaler.scale_ups(), 1u);
    EXPECT_EQ(d.replica_count(), 1u);  // still provisioning
  }  // scaler destroyed; its provisioning event is still queued
  keep_going = false;
  sim.run_until(60.0);
  EXPECT_EQ(d.replica_count(), 1u);  // orphaned provisioning abandoned
}

TEST_F(AutoscalerTest, WatchDuringPendingProvisioningKeepsAccounting) {
  // watch() after start() may reallocate the watch list while a
  // provisioning callback is outstanding; the callback re-resolves its
  // entry by deployment, so the pending_up accounting must survive.
  auto& d = deploy_slow();
  Autoscaler::Config config;
  config.interval = 1.0;
  config.cooldown = 5.0;
  config.provisioning_delay = 10.0;
  Autoscaler scaler(sim, config);
  scaler.watch(d);
  scaler.start();
  sustain_load(d, 32);
  sim.run_until(2.0);  // scale-up decided; provisioning in flight
  EXPECT_EQ(scaler.scale_ups(), 1u);
  for (int i = 0; i < 16; ++i) {
    auto& extra = mesh.deploy(
        "extra" + std::to_string(i), cluster,
        {.replicas = 1, .concurrency = 4, .queue_capacity = 4096},
        std::make_unique<FixedLatencyBehavior>(0.500, 0.501));
    scaler.watch(extra);
  }
  sim.run_until(15.0);
  EXPECT_GE(d.replica_count(), 2u);  // the in-flight provisioning landed
  // pending_up drained correctly: sustained overload keeps scaling.
  sim.run_until(40.0);
  EXPECT_GE(scaler.scale_ups(), 2u);
  EXPECT_GE(d.replica_count(), 3u);
  keep_going = false;
  sim.run_until(50.0);
}

TEST_F(AutoscalerTest, CrashDuringProvisioningKeepsPendingAccounting) {
  // Chaos-crash interaction: the only live replica crashes while a new one
  // is provisioning. The provisioning event fires after the crash and must
  // still add its replica and drain pending_up (capacity extrapolation
  // divides by replica_count, which includes the crashed replica).
  auto& d = deploy_slow();
  Autoscaler::Config config;
  config.interval = 1.0;
  config.cooldown = 3.0;
  // Mid-interval landing: were the replica to come up exactly on an
  // evaluation tick, the evaluator would see it idle (the crashed loop's
  // retries have not re-queued yet) and immediately scale it back down —
  // that timing artefact is not what this test is about.
  config.provisioning_delay = 10.5;
  Autoscaler scaler(sim, config);
  scaler.watch(d);
  scaler.start();
  sustain_load(d, 32);
  sim.run_until(2.0);  // pending_up == 1
  EXPECT_EQ(scaler.scale_ups(), 1u);
  d.crash_replica(0);
  EXPECT_EQ(d.alive_replicas(), 0u);
  sim.run_until(13.0);  // provisioning fired after the crash
  EXPECT_EQ(d.replica_count(), 2u);  // crashed replica retained + new one
  EXPECT_EQ(d.alive_replicas(), 1u);
  d.restart_replica(0);
  // Accounting intact: continued overload can still scale further.
  sustain_load(d, 32);
  sim.run_until(40.0);
  EXPECT_GE(scaler.scale_ups(), 2u);
  keep_going = false;
  sim.run_until(50.0);
}

using test_util::ManualBehavior;

TEST_F(AutoscalerTest, CrashAfterScaleDownHitsTheRightReplica) {
  // Regression: pending calls remembered their replica by index, and
  // remove_idle_replica() shifts every later index — crashing replica 0
  // after a scale-down then failed nothing (the call was filed under
  // index 1) and restart tripped the "no active slots" assertion.
  std::vector<OutcomeFn> parked;
  auto& d = mesh.deploy(
      "svc", cluster, {.replicas = 2, .concurrency = 4, .queue_capacity = 16},
      std::make_unique<ManualBehavior>(parked));
  int a_done = 0;
  int b_failed = 0;
  d.handle(0, [&](const Outcome&) { ++a_done; });  // A -> replica 0
  d.handle(0, [&](const Outcome& o) {             // B -> replica 1
    if (!o.success) ++b_failed;
  });
  ASSERT_EQ(parked.size(), 2u);
  ASSERT_EQ(d.replica(0).active(), 1u);
  ASSERT_EQ(d.replica(1).active(), 1u);

  parked[0](Outcome{});  // A finishes; replica 0 is idle
  EXPECT_EQ(a_done, 1);
  ASSERT_TRUE(d.remove_idle_replica());
  ASSERT_EQ(d.replica_count(), 1u);  // B's replica is now index 0

  d.crash_replica(0);
  EXPECT_EQ(d.crash_failed(), 1u);
  EXPECT_EQ(b_failed, 1);
  EXPECT_EQ(d.live_calls(), 0u);
  parked[1](Outcome{});  // B's late behavior completion is absorbed
  EXPECT_EQ(d.completed(), 1u);  // only A: a crash-failed call never counts
  EXPECT_NO_THROW(d.restart_replica(0));
  EXPECT_EQ(d.alive_replicas(), 1u);
}

TEST_F(AutoscalerTest, CompletedCountSurvivesScaleDown) {
  auto& d = deploy_slow();
  d.add_replica();
  // Six concurrent requests spread over both replicas (least-loaded with a
  // rotating tie-break), then all finish.
  int finished = 0;
  for (int i = 0; i < 6; ++i) {
    d.handle(0, [&](const Outcome& o) { finished += o.success ? 1 : 0; });
  }
  ASSERT_GT(d.replica(0).load(), 0u);
  ASSERT_GT(d.replica(1).load(), 0u);
  sim.run_until(5.0);
  ASSERT_EQ(finished, 6);
  EXPECT_EQ(d.completed(), 6u);
  ASSERT_TRUE(d.remove_idle_replica());
  // A lifetime count: the removed replica's completions stay counted.
  EXPECT_EQ(d.completed(), 6u);
}

TEST_F(AutoscalerTest, RejectsBadConfig) {
  Autoscaler::Config config;
  config.scale_up_utilisation = 0.2;
  config.scale_down_utilisation = 0.5;
  EXPECT_THROW(Autoscaler(sim, config), ContractViolation);
}

}  // namespace
}  // namespace l3::mesh
