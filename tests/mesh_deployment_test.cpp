// Tests for Replica (slots + FIFO queue) and ServiceDeployment (replica
// selection, outage handling, behavior invocation).
#include "l3/mesh/deployment.h"

#include "l3/mesh/mesh.h"
#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace l3::mesh {
namespace {

TEST(Replica, RunsImmediatelyWhenSlotFree) {
  Replica r(2, 10);
  bool ran = false;
  EXPECT_TRUE(r.submit([&](ReleaseToken release) {
    ran = true;
    release();
  }));
  EXPECT_TRUE(ran);
  EXPECT_EQ(r.active(), 0u);
}

TEST(Replica, QueuesBeyondConcurrency) {
  Replica r(1, 10);
  ReleaseToken release_first;
  EXPECT_TRUE(r.submit([&](ReleaseToken release) {
    release_first = std::move(release);
  }));
  bool second_ran = false;
  EXPECT_TRUE(r.submit([&](ReleaseToken release) {
    second_ran = true;
    release();
  }));
  EXPECT_EQ(r.active(), 1u);
  EXPECT_EQ(r.queued(), 1u);
  EXPECT_FALSE(second_ran);
  release_first();  // frees the slot → queued job runs
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(r.load(), 0u);
}

TEST(Replica, RejectsWhenQueueFull) {
  Replica r(1, 1);
  ReleaseToken hold;
  r.submit([&](ReleaseToken release) { hold = std::move(release); });
  EXPECT_TRUE(r.submit([](ReleaseToken release) { release(); }));
  EXPECT_FALSE(r.submit([](ReleaseToken release) { release(); }));
  EXPECT_EQ(r.rejected(), 1u);
  hold();
}

TEST(Replica, DoubleReleaseIsContractViolation) {
  Replica r(1, 1);
  ReleaseToken saved;
  r.submit([&](ReleaseToken release) { saved = std::move(release); });
  saved();
  EXPECT_FALSE(saved);  // consumed: the slot proof is gone
  EXPECT_THROW(saved(), ContractViolation);
}

TEST(Replica, FifoOrderForQueuedJobs) {
  Replica r(1, 10);
  ReleaseToken release0;
  std::vector<int> order;
  r.submit([&](ReleaseToken release) { release0 = std::move(release); });
  for (int i = 1; i <= 3; ++i) {
    r.submit([&order, i](ReleaseToken release) {
      order.push_back(i);
      release();
    });
  }
  release0();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Replica, FifoOrderHoldsAcrossQueueWrapAndGrowth) {
  Replica r(1, 64);
  std::vector<int> order;
  std::vector<ReleaseToken> running;
  int submitted = 0;
  const auto submit = [&] {
    const int id = submitted++;
    ASSERT_TRUE(r.submit([&order, &running, id](ReleaseToken release) {
      order.push_back(id);
      running.push_back(std::move(release));
    }));
  };
  // Bursts of 1..7 submissions against 1..5 completions: the queue length
  // drifts up and down, so its ring both wraps and doubles.
  for (int round = 0; round < 300; ++round) {
    for (int k = 0; k < 1 + round % 7 && r.queued() < 60; ++k) submit();
    for (int k = 0; k < 1 + round % 5 && !running.empty(); ++k) {
      ReleaseToken release = std::move(running.back());
      running.pop_back();
      release();  // runs the next queued job, which parks its own token
    }
  }
  while (!running.empty()) {
    ReleaseToken release = std::move(running.back());
    running.pop_back();
    release();
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(submitted));
  for (int i = 0; i < submitted; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(r.load(), 0u);
  EXPECT_GT(r.queue_slots(), 8u);  // the queue grew past its first slab
}

TEST(Replica, SaturatedQueueStaysWithinCapacity) {
  for (const std::size_t capacity : {1u, 3u, 5u, 8u, 100u}) {
    Replica r(2, capacity);
    std::vector<ReleaseToken> running;
    const auto job = [&running](ReleaseToken release) {
      running.push_back(std::move(release));
    };
    EXPECT_EQ(r.queue_slots(), 0u);  // idle: no queue memory
    std::uint64_t rejected = 0;
    for (int round = 0; round < 2000; ++round) {
      // Fill to the brim, then free one slot; the queue stays saturated.
      while (r.submit(job)) {
        ASSERT_LE(r.queued(), capacity);
      }
      ++rejected;
      ASSERT_EQ(r.queued(), capacity);
      ReleaseToken release = std::move(running.front());
      running.erase(running.begin());
      release();
    }
    EXPECT_EQ(r.rejected(), rejected);
    EXPECT_LE(r.queue_slots(),
              std::max<std::size_t>(8, std::bit_ceil(capacity)))
        << capacity;
    r.crash();
    for (ReleaseToken& release : running) release();
  }
}

TEST(Replica, CrashDropsExactlyTheQueuedJobsAndRestartsEmpty) {
  Replica r(1, 10);
  ReleaseToken in_flight;
  r.submit([&](ReleaseToken release) { in_flight = std::move(release); });
  int ran = 0;
  const auto alive = std::make_shared<int>(0);
  for (int i = 0; i < 5; ++i) {
    r.submit([&ran, alive](ReleaseToken release) {
      ++ran;
      release();
    });
  }
  ASSERT_EQ(r.queued(), 5u);
  ASSERT_EQ(alive.use_count(), 6);
  EXPECT_EQ(r.crash(), 5u);
  EXPECT_EQ(r.queued(), 0u);
  EXPECT_EQ(alive.use_count(), 1);  // the queued closures were destroyed
  EXPECT_EQ(r.queue_slots(), 0u);   // and the queue's storage freed
  EXPECT_EQ(r.active(), 1u);        // the in-flight slot is still held
  in_flight();                      // released by the owner's crash path
  EXPECT_EQ(ran, 0);                // without pumping the queue
  r.restart();
  EXPECT_EQ(r.load(), 0u);
  std::vector<int> order;
  ReleaseToken hold;
  r.submit([&](ReleaseToken release) { hold = std::move(release); });
  for (int i = 0; i < 3; ++i) {
    r.submit([&order, i](ReleaseToken release) {
      order.push_back(i);
      release();
    });
  }
  hold();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ran, 0);
}

class DeploymentTest : public ::testing::Test {
 protected:
  DeploymentTest() : rng(1), mesh(sim, rng) {
    cluster = mesh.add_cluster("c1");
  }

  ServiceDeployment& deploy(DeploymentConfig config,
                            SimDuration median = 0.010,
                            SimDuration p99 = 0.050, double success = 1.0) {
    return mesh.deploy("svc", cluster, config,
                       std::make_unique<FixedLatencyBehavior>(median, p99,
                                                              success));
  }

  sim::Simulator sim;
  SplitRng rng;
  Mesh mesh;
  ClusterId cluster = 0;
};

TEST_F(DeploymentTest, HandlesRequestThroughBehavior) {
  auto& d = deploy({.replicas = 2, .concurrency = 4, .queue_capacity = 8});
  bool done = false;
  Outcome outcome;
  d.handle(0, [&](const Outcome& o) {
    done = true;
    outcome = o;
  });
  EXPECT_FALSE(done);  // asynchronous: needs the execution delay to elapse
  sim.run_until(10.0);
  EXPECT_TRUE(done);
  EXPECT_TRUE(outcome.success);
  EXPECT_FALSE(outcome.rejected);
  EXPECT_EQ(d.completed(), 1u);
}

TEST_F(DeploymentTest, DownDeploymentRejectsImmediately) {
  auto& d = deploy({});
  d.set_down(true);
  bool done = false;
  d.handle(0, [&](const Outcome& o) {
    done = true;
    EXPECT_FALSE(o.success);
    EXPECT_TRUE(o.rejected);
  });
  EXPECT_TRUE(done);  // rejection is synchronous
  EXPECT_EQ(d.rejected(), 1u);
}

TEST_F(DeploymentTest, SpreadsLoadAcrossReplicas) {
  auto& d = deploy({.replicas = 3, .concurrency = 100, .queue_capacity = 100});
  for (int i = 0; i < 30; ++i) {
    d.handle(0, [](const Outcome&) {});
  }
  // With least-loaded + rotation, 30 in-flight requests spread 10/10/10.
  EXPECT_EQ(d.replica(0).load(), 10u);
  EXPECT_EQ(d.replica(1).load(), 10u);
  EXPECT_EQ(d.replica(2).load(), 10u);
  sim.run_until(10.0);
  EXPECT_EQ(d.completed(), 30u);
}

TEST_F(DeploymentTest, FailureRateRoughlyHonoured) {
  auto& d = deploy({.replicas = 3, .concurrency = 1000,
                    .queue_capacity = 1000},
                   0.010, 0.050, 0.7);
  int ok = 0, total = 2000;
  for (int i = 0; i < total; ++i) {
    d.handle(0, [&](const Outcome& o) {
      if (o.success) ++ok;
    });
  }
  sim.run_until(60.0);
  EXPECT_NEAR(static_cast<double>(ok) / total, 0.7, 0.05);
}

TEST_F(DeploymentTest, SaturationBuildsQueueingDelay) {
  // 1 replica × 1 slot; behavior takes ~10 ms; submit 20 at once → the
  // last completion should be near 20 × exec time, far beyond a single
  // exec time.
  auto& d = deploy({.replicas = 1, .concurrency = 1, .queue_capacity = 64},
                   0.010, 0.0101);
  int completed = 0;
  SimTime last_done = 0.0;
  for (int i = 0; i < 20; ++i) {
    d.handle(0, [&](const Outcome&) {
      ++completed;
      last_done = sim.now();
    });
  }
  sim.run_until(10.0);
  EXPECT_EQ(completed, 20);
  EXPECT_GT(last_done, 0.15);  // ≈ 20 × 10 ms serialized
}

}  // namespace
}  // namespace l3::mesh
