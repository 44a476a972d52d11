// Tests for l3::chaos: the FaultPlan builder/generator, the FaultInjector's
// transitions, and the failure semantics they drive through the mesh —
// exactly-once completion and slot recycling when replicas crash with calls
// in flight, partition/crash exclusion in the picker, and the controller's
// staleness path under a scrape outage.
#include "l3/chaos/injector.h"

#include "l3/chaos/fault_plan.h"
#include "l3/core/controller.h"
#include "l3/lb/l3_policy.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/sim/simulator.h"
#include "l3/workload/client.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace l3::chaos {
namespace {

mesh::MeshConfig quiet_config() {
  mesh::MeshConfig config;
  config.local_delay = 0.0;
  config.local_jitter_frac = 0.0;
  config.health_probe_interval = 0.0;
  return config;
}

// --- crash semantics: exactly-once completion and slot recycling ----------

TEST(ChaosCrash, CrashFailsInFlightAndQueuedExactlyOnce) {
  sim::Simulator sim;
  mesh::Mesh m(sim, SplitRng(3), quiet_config());
  const auto a = m.add_cluster("a");
  mesh::DeploymentConfig dc;
  dc.replicas = 2;
  dc.concurrency = 2;
  dc.queue_capacity = 2;
  // Slow behavior: everything submitted now is still in flight (or queued)
  // when the crash hits at t = 1.
  auto& d = m.deploy("svc", a, dc,
                     std::make_unique<mesh::FixedLatencyBehavior>(10.0, 10.1));

  // 2 replicas × (2 slots + 2 queue) = 8 accepted; the last 2 overflow.
  std::vector<int> fired(10, 0);
  std::vector<mesh::Outcome> outcomes(10);
  for (int i = 0; i < 10; ++i) {
    d.handle(0, [&fired, &outcomes, i](const mesh::Outcome& o) {
      fired[static_cast<std::size_t>(i)] += 1;
      outcomes[static_cast<std::size_t>(i)] = o;
    });
  }
  sim.run_until(1.0);
  int done_before = 0;
  for (int i = 0; i < 10; ++i) done_before += fired[static_cast<size_t>(i)];
  ASSERT_EQ(done_before, 2);  // only the overflow rejections fired
  ASSERT_EQ(d.live_calls(), 8u);

  d.crash_replica(0);
  d.crash_replica(1);

  // Every pending call failed through the normal path, exactly once each.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], 1) << "call " << i;
    EXPECT_FALSE(outcomes[static_cast<std::size_t>(i)].success);
  }
  EXPECT_EQ(d.live_calls(), 0u);     // no leaked pool entries
  EXPECT_EQ(d.crash_failed(), 8u);   // 4 in flight + 4 queued
  EXPECT_EQ(d.alive_replicas(), 0u);
  for (std::size_t r = 0; r < d.replica_count(); ++r) {
    EXPECT_EQ(d.replica(r).active(), 0u);  // slots released exactly once
    EXPECT_EQ(d.replica(r).queued(), 0u);
  }

  // The behaviors' own done continuations for the 4 in-flight calls fire
  // around t = 10 against stale handles; they must be absorbed silently.
  sim.run_until(20.0);
  EXPECT_EQ(d.live_calls(), 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], 1) << "late double-fire";
  }

  // Crashed replicas take no traffic; after restart, service resumes.
  int crashed_fired = 0;
  d.handle(0, [&crashed_fired](const mesh::Outcome& o) {
    ++crashed_fired;
    EXPECT_FALSE(o.success);
    EXPECT_TRUE(o.rejected);
  });
  EXPECT_EQ(crashed_fired, 1);
  d.restart_replica(0);
  d.restart_replica(1);
  EXPECT_EQ(d.alive_replicas(), 2u);
  bool ok = false;
  d.handle(0, [&ok](const mesh::Outcome& o) { ok = o.success; });
  sim.run_until(60.0);
  EXPECT_TRUE(ok);
}

TEST(ChaosCrash, RepeatedCrashRestartCyclesLeakNothing) {
  sim::Simulator sim;
  mesh::Mesh m(sim, SplitRng(4), quiet_config());
  const auto a = m.add_cluster("a");
  mesh::DeploymentConfig dc;
  dc.replicas = 2;
  dc.concurrency = 4;
  dc.queue_capacity = 4;
  auto& d = m.deploy("svc", a, dc,
                     std::make_unique<mesh::FixedLatencyBehavior>(0.5, 0.6));

  int fired = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 12; ++i) {
      d.handle(0, [&fired](const mesh::Outcome&) { ++fired; });
    }
    sim.run_until(sim.now() + 0.1);
    d.crash_replica(0);  // one replica dies mid-burst…
    sim.run_until(sim.now() + 2.0);
    d.crash_replica(0);  // …idempotent re-crash is a no-op
    d.restart_replica(0);
    sim.run_until(sim.now() + 2.0);
  }
  sim.run_until(sim.now() + 10.0);
  EXPECT_EQ(fired, 5 * 12);  // every call completed exactly once
  EXPECT_EQ(d.live_calls(), 0u);
  EXPECT_EQ(d.load(), 0u);
  EXPECT_EQ(d.alive_replicas(), 2u);
}

// --- injector transitions -------------------------------------------------

TEST(ChaosInjector, ArmsPlansAndEmitsSortedMarkers) {
  sim::Simulator sim;
  mesh::Mesh m(sim, SplitRng(5), quiet_config());
  const auto a = m.add_cluster("a");
  const auto b = m.add_cluster("b");
  m.deploy("svc", a, {}, std::make_unique<mesh::FixedLatencyBehavior>(0.01, 0.02));
  m.deploy("svc", b, {}, std::make_unique<mesh::FixedLatencyBehavior>(0.01, 0.02));

  FaultPlan plan;
  plan.crash("svc", b, 30.0, 10.0)
      .partition(a, b, 5.0, 10.0)
      .brownout(a, b, 20.0, 5.0, 0.050)
      .scrape_outage(40.0, 10.0)
      .controller_pause(50.0, 0.0);  // unbounded: lasts to end of run

  FaultInjector injector(sim, m);
  injector.arm(plan, /*time_offset=*/10.0);
  EXPECT_EQ(injector.armed(), 5u);

  // begin+end per bounded fault, begin only for the unbounded pause.
  const auto& markers = injector.markers();
  ASSERT_EQ(markers.size(), 9u);
  for (std::size_t i = 1; i < markers.size(); ++i) {
    EXPECT_LE(markers[i - 1].time, markers[i].time) << "markers sorted";
  }
  EXPECT_EQ(markers.front().name, "partition:a<->b");  // offset 10 + 5
  EXPECT_DOUBLE_EQ(markers.front().time, 15.0);
  bool saw_crash = false;
  for (const auto& marker : markers) {
    if (marker.name == "crash:svc@b") saw_crash = true;
  }
  EXPECT_TRUE(saw_crash);

  // WAN faults live inside the WanModel (no events); the other three kinds
  // execute begin/end transitions: crash 2 + outage 2 + pause 1.
  EXPECT_TRUE(m.wan().has_partitions());
  sim.run_until(200.0);
  EXPECT_EQ(injector.transitions(), 5u);
  EXPECT_EQ(m.deployments_of("svc")[1]->alive_replicas(),
            m.deployments_of("svc")[1]->replica_count());  // restarted
}

// --- picker exclusion under partitions and crashes ------------------------

/// Pearson chi-square; zero-expectation cells are asserted separately.
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

TEST(ChaosInjector, PartitionedBackendNeverPickedWhileWindowActive) {
  sim::Simulator sim;
  mesh::Mesh m(sim, SplitRng(6), quiet_config());
  const auto a = m.add_cluster("a");
  const auto b = m.add_cluster("b");
  const auto c = m.add_cluster("c");
  for (auto cl : {a, b, c}) {
    m.deploy("svc", cl, {},
             std::make_unique<mesh::FixedLatencyBehavior>(0.01, 0.02));
  }
  mesh::Proxy& proxy = m.proxy(a, "svc");

  FaultPlan plan;
  plan.partition(a, b, 10.0, 50.0);
  FaultInjector injector(sim, m);
  injector.arm(plan);

  sim.run_until(20.0);  // inside the window
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) counts[proxy.pick_backend()] += 1;
  // The fallback must never leak the partitioned backend, and the survivors
  // keep their (equal) relative shares. df = 1; 10.83 is p = 0.001.
  EXPECT_EQ(counts[1], 0);
  EXPECT_LT(chi_square(counts, {1500.0, 0.0, 1500.0}), 10.83);

  sim.run_until(70.0);  // window over: full set again
  counts.assign(3, 0);
  for (int i = 0; i < 3000; ++i) counts[proxy.pick_backend()] += 1;
  EXPECT_GT(counts[1], 0);
  EXPECT_LT(chi_square(counts, {1000.0, 1000.0, 1000.0}), 13.82);  // df = 2
}

TEST(ChaosCrash, CrashedClusterExcludedOnceHealthProbesNotice) {
  sim::Simulator sim;
  mesh::MeshConfig config = quiet_config();
  config.health_probe_interval = 1.0;
  mesh::Mesh m(sim, SplitRng(7), config);
  const auto a = m.add_cluster("a");
  const auto b = m.add_cluster("b");
  const auto c = m.add_cluster("c");
  for (auto cl : {a, b, c}) {
    m.deploy("svc", cl, {},
             std::make_unique<mesh::FixedLatencyBehavior>(0.01, 0.02));
  }
  mesh::Proxy& proxy = m.proxy(a, "svc");

  FaultPlan plan;
  plan.crash("svc", b, 5.0, 30.0);
  FaultInjector injector(sim, m);
  injector.arm(plan);

  sim.run_until(10.0);  // crash at 5, probe notices by 6
  EXPECT_EQ(m.deployments_of("svc")[1]->alive_replicas(), 0u);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) counts[proxy.pick_backend()] += 1;
  EXPECT_EQ(counts[1], 0);  // health view excludes the dead cluster
  EXPECT_LT(chi_square(counts, {1500.0, 0.0, 1500.0}), 10.83);

  sim.run_until(60.0);  // restart at 35, probe confirms recovery
  counts.assign(3, 0);
  for (int i = 0; i < 3000; ++i) counts[proxy.pick_backend()] += 1;
  EXPECT_GT(counts[1], 0);
}

// --- scrape outage drives the controller's staleness path -----------------

TEST(ChaosInjector, ScrapeOutageStarvesControllerThenRecovers) {
  sim::Simulator sim;
  SplitRng rng(8);
  mesh::MeshConfig config;
  config.local_delay = 0.0002;
  config.health_probe_interval = 0.0;
  mesh::Mesh m(sim, rng, config);
  const auto a = m.add_cluster("a");
  const auto b = m.add_cluster("b");
  const auto c = m.add_cluster("c");
  for (auto cl : {a, b, c}) {
    m.deploy("svc", cl, {},
             std::make_unique<mesh::FixedLatencyBehavior>(0.02, 0.08));
  }
  m.proxy(a, "svc");
  metrics::TimeSeriesDb tsdb;
  metrics::Scraper scraper(sim, tsdb);
  scraper.add_target("a", m.registry(a));
  scraper.start(5.0);
  core::L3Controller controller(m, tsdb, a,
                                std::make_unique<lb::L3Policy>(), {});
  controller.manage_all();
  controller.start();
  workload::OpenLoopClient client(m, a, "svc",
                                  [](SimTime) { return 200.0; },
                                  rng.split("client"));
  client.start(0.0, 1e9);

  FaultPlan plan;
  plan.scrape_outage(70.0, 40.0);
  FaultInjector injector(sim, m);
  injector.set_scraper(&scraper);
  injector.arm(plan);

  sim.run_until(65.0);
  const double rps_live = controller.snapshot()[0].backends[0].rps;
  ASSERT_GT(rps_live, 10.0);  // tracking real traffic before the outage

  // Outage [70, 110): after the 10 s staleness threshold the controller
  // converges the starved signals toward the §4 defaults (rps → 0), even
  // though the backends are still serving traffic the whole time.
  sim.run_until(108.0);
  const double rps_starved = controller.snapshot()[0].backends[0].rps;
  EXPECT_LT(rps_starved, rps_live * 0.5);
  EXPECT_EQ(injector.transitions(), 1u);  // end transition still pending

  // Scrapes resume at 110; the filters re-learn the real signal.
  sim.run_until(160.0);
  EXPECT_EQ(injector.transitions(), 2u);
  EXPECT_GT(controller.snapshot()[0].backends[0].rps, rps_starved);
}

TEST(ChaosInjector, ControllerPauseFreezesWeightsThenResumes) {
  sim::Simulator sim;
  SplitRng rng(9);
  mesh::MeshConfig config;
  config.local_delay = 0.0002;
  config.health_probe_interval = 0.0;
  mesh::Mesh m(sim, rng, config);
  const auto a = m.add_cluster("a");
  const auto b = m.add_cluster("b");
  const auto c = m.add_cluster("c");
  const std::vector<SimDuration> medians = {0.02, 0.2, 0.2};
  const std::vector<mesh::ClusterId> clusters = {a, b, c};
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    m.deploy("svc", clusters[i], {},
             std::make_unique<mesh::FixedLatencyBehavior>(medians[i],
                                                          medians[i] * 4.0));
  }
  m.proxy(a, "svc");
  metrics::TimeSeriesDb tsdb;
  metrics::Scraper scraper(sim, tsdb);
  scraper.add_target("a", m.registry(a));
  scraper.start(5.0);
  core::L3Controller controller(m, tsdb, a,
                                std::make_unique<lb::L3Policy>(), {});
  controller.manage_all();
  controller.start();
  workload::OpenLoopClient client(m, a, "svc",
                                  [](SimTime) { return 200.0; },
                                  rng.split("client"));
  client.start(0.0, 1e9);

  FaultPlan plan;
  plan.controller_pause(40.0, 30.0);
  FaultInjector injector(sim, m);
  injector.add_controller(&controller);
  injector.arm(plan);

  sim.run_until(42.0);
  const auto frozen_gen = m.find_split(a, "svc")->generation();
  const auto ticks_at_pause = controller.ticks();
  sim.run_until(68.0);
  EXPECT_EQ(m.find_split(a, "svc")->generation(), frozen_gen)
      << "paused controller must not push weights";
  EXPECT_GT(controller.ticks(), ticks_at_pause) << "filtering continues";
  sim.run_until(100.0);
  EXPECT_GT(m.find_split(a, "svc")->generation(), frozen_gen)
      << "resumed controller pushes weights again";
}

// --- plan builder / generator ---------------------------------------------

TEST(ChaosPlan, RandomPlanIsDeterministicAndScalesWithIntensity) {
  const RandomPlanConfig config{.horizon = 600.0, .intensity = 1.0};
  const FaultPlan p1 = make_random_plan(config, 99);
  const FaultPlan p2 = make_random_plan(config, 99);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.faults()[i].kind, p2.faults()[i].kind);
    EXPECT_DOUBLE_EQ(p1.faults()[i].start, p2.faults()[i].start);
    EXPECT_DOUBLE_EQ(p1.faults()[i].duration, p2.faults()[i].duration);
  }
  EXPECT_NE(make_random_plan(config, 100).faults()[0].start,
            p1.faults()[0].start);

  EXPECT_TRUE(make_random_plan({.intensity = 0.0}, 99).empty());
  const FaultPlan heavy = make_random_plan({.intensity = 2.0}, 99);
  EXPECT_GT(heavy.size(), p1.size());
  for (const Fault& f : heavy.faults()) {
    EXPECT_GE(f.start, 0.0);
    EXPECT_LT(f.start, 600.0 * 0.8);
    EXPECT_GT(f.duration, 0.0);
    if (f.kind == FaultKind::kWanPartition ||
        f.kind == FaultKind::kWanBrownout) {
      EXPECT_NE(f.a, f.b);  // a self-link fault would be invisible
    }
  }
}

TEST(ChaosPlan, ToStringCoversTaxonomy) {
  EXPECT_STREQ(to_string(FaultKind::kReplicaCrash), "crash");
  EXPECT_STREQ(to_string(FaultKind::kWanPartition), "partition");
  EXPECT_STREQ(to_string(FaultKind::kWanBrownout), "brownout");
  EXPECT_STREQ(to_string(FaultKind::kScrapeOutage), "scrape-outage");
  EXPECT_STREQ(to_string(FaultKind::kControllerPause), "controller-pause");
}

}  // namespace
}  // namespace l3::chaos
