#include "l3/workload/mega.h"

#include "l3/chaos/fault_plan.h"
#include "l3/chaos/injector.h"
#include "l3/common/assert.h"
#include "l3/common/rng.h"
#include "l3/core/controller.h"
#include "l3/lb/l3_policy.h"
#include "l3/mesh/deployment.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/sim/shard_engine.h"
#include "l3/sim/simulator.h"
#include "l3/workload/client.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace l3::workload {
namespace {

/// Contiguous block partitioning: region r belongs to shard r·S/R.
std::size_t region_owner(std::size_t region, std::size_t regions,
                         std::size_t shards) {
  return region * shards / regions;
}

mesh::MeshConfig make_mesh_config(const MegaConfig& config,
                                  sim::ShardRouter& router) {
  mesh::MeshConfig mc;
  // Health probes would read remote replica state across shard boundaries;
  // mega keeps failure visibility metrics-only (like the chaos benches).
  mc.health_probe_interval = 0.0;
  mc.proxy_cost = config.proxy_cost;
  mc.shard_router = &router;
  return mc;
}

/// Everything one shard owns. Constructed, run and destroyed on the shard's
/// own thread (the Simulator thread-affinity contract).
struct ShardState {
  const MegaConfig& config;
  sim::ShardEngine& engine;
  sim::ShardRouter& router;
  std::vector<mesh::ClusterId> owned;
  sim::Simulator sim;
  SplitRng root;
  mesh::Mesh mesh;
  // Production layout scaled out: one TSDB + scraper + controller + client
  // per owned region (parallel to `owned`).
  std::vector<std::unique_ptr<metrics::TimeSeriesDb>> tsdbs;
  std::vector<std::unique_ptr<metrics::Scraper>> scrapers;
  std::vector<std::unique_ptr<core::L3Controller>> controllers;
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  std::unique_ptr<chaos::FaultInjector> injector;
  sim::PeriodicHandle audit_task;

  /// Phase A: topology + owned deployments. Every shard builds the same
  /// clusters and the same frozen WAN table (cross-region samples are drawn
  /// source-side, so each copy only ever serves its own regions — but the
  /// partition checks on the return leg read the dest copy, which is why
  /// the copies must be identical, chaos faults included).
  ShardState(const MegaConfig& cfg, sim::ShardEngine& eng, std::size_t shard,
             std::vector<mesh::ServiceDeployment*>& dep_of_region)
      : config(cfg),
        engine(eng),
        router(eng.router(shard)),
        root(cfg.seed),
        mesh(sim, root.split("mesh"), make_mesh_config(cfg, eng.router(shard))) {
    router.attach(sim);
    for (std::size_t r = 0; r < cfg.regions; ++r) {
      mesh.add_cluster("region-" + std::to_string(r));
    }
    mesh::WanModel::Link link;
    link.base = MegaConfig::wan_base;
    link.flap_amp = 0.0;  // flap-free: the base is the effective floor
    for (std::uint32_t i = 0; i < cfg.regions; ++i) {
      for (std::uint32_t j = 0; j < cfg.regions; ++j) {
        if (i != j) mesh.wan().set_link(i, j, link);
      }
    }
    mesh.wan().freeze();
    if (cfg.chaos) arm_wan_faults();

    mesh::DeploymentConfig dc;
    dc.replicas = cfg.replicas_per_region;
    for (std::size_t r = 0; r < cfg.regions; ++r) {
      if (region_owner(r, cfg.regions, cfg.shards) != shard) continue;
      const auto region = static_cast<mesh::ClusterId>(r);
      owned.push_back(region);
      auto& dep = mesh.deploy(
          "api", region, dc,
          std::make_unique<mesh::FixedLatencyBehavior>(0.020, 0.060));
      dep_of_region[r] = &dep;
    }
  }

  /// WAN fault timeline, installed identically into every shard's copy
  /// (disturbances and partitions are pure functions of time — no events,
  /// so the executed-event count stays shard-count-invariant).
  void arm_wan_faults() {
    const SimTime d = config.duration;
    mesh.wan().add_disturbance({.from = 0, .to = 1, .start = 0.3 * d,
                                .end = 0.5 * d, .extra = 0.010});
    mesh.wan().add_disturbance({.from = 1, .to = 0, .start = 0.3 * d,
                                .end = 0.5 * d, .extra = 0.010});
    mesh.wan().add_partition({.a = 1, .b = 2, .start = 0.5 * d,
                              .end = 0.6 * d});
  }

  /// Phase B: remote declarations + per-region control planes + load. Runs
  /// after the cross-shard barrier, so every dep_of_region slot is filled.
  void wire(const std::vector<mesh::ServiceDeployment*>& dep_of_region) {
    for (std::size_t r = 0; r < config.regions; ++r) {
      if (region_owner(r, config.regions, config.shards) == router.shard()) {
        continue;
      }
      mesh.declare_remote("api", static_cast<mesh::ClusterId>(r),
                          dep_of_region[r]);
    }
    chaos::FaultPlan plan;
    const core::ControllerConfig controller_config;
    for (const mesh::ClusterId region : owned) {
      mesh.proxy(region, "api");  // materialise proxy + TrafficSplit
      const std::string& name = mesh.cluster_names()[region];

      // The controller is the store's only reader: keep exactly its window.
      auto tsdb = std::make_unique<metrics::TimeSeriesDb>(
          controller_config.query_window);
      auto scraper = std::make_unique<metrics::Scraper>(sim, *tsdb);
      scraper->add_target(name, mesh.registry(region));
      scraper->start(config.scrape_interval);

      auto controller = std::make_unique<core::L3Controller>(
          mesh, *tsdb, region, std::make_unique<lb::L3Policy>(),
          controller_config);
      controller->manage(*mesh.find_split(region, "api"));
      controller->start();

      auto client = std::make_unique<OpenLoopClient>(
          mesh, region, "api",
          [rps = config.rps_per_region](SimTime) { return rps; },
          root.split("client@" + name));
      client->start(0.0, config.duration);

      if (config.chaos && region % 7 == 3) {
        plan.crash("api", region, 0.3 * config.duration,
                   0.2 * config.duration);
      }
      tsdbs.push_back(std::move(tsdb));
      scrapers.push_back(std::move(scraper));
      controllers.push_back(std::move(controller));
      clients.push_back(std::move(client));
    }
    if (!plan.empty()) {
      // Crash events land on this (owning) shard's simulator — the fault
      // epoch is the owner's, exactly as in the single-queue run.
      injector = std::make_unique<chaos::FaultInjector>(sim, mesh);
      injector->arm(plan);
    }
  }

  /// Shard-0 audit coordinator: each tick posts a keyed probe to every
  /// region; the owner replies with its deployment's handled count, and the
  /// replies merge on shard 0 into one cross-shard snapshot stream. Both
  /// legs ride the mailbox keys, so the log is shard-count-invariant.
  void start_audit(const std::vector<mesh::ServiceDeployment*>& dep_of_region,
                   std::vector<MegaAuditEntry>& audit) {
    if (config.audit_interval <= 0.0) return;
    sim::ShardEngine* const eng = &engine;
    const mesh::ServiceDeployment* const* const deps = dep_of_region.data();
    std::vector<MegaAuditEntry>* const log = &audit;
    const SimDuration la = MegaConfig::wan_base;
    const auto regions = static_cast<std::uint32_t>(config.regions);
    audit_task = sim.schedule_every(
        config.audit_interval, [this, eng, deps, log, la, regions] {
          const SimTime now = sim.now();
          for (std::uint32_t r = 0; r < regions; ++r) {
            const mesh::ServiceDeployment* const dep = deps[r];
            router.post(0, r, now + la, [dep, eng, log, r, la] {
              const std::uint64_t handled = dep->completed();
              sim::ShardRouter& rt = eng->router_for_cluster(r);
              rt.post(r, 0, rt.sim().now() + la, [eng, log, r, handled] {
                log->push_back(MegaAuditEntry{
                    eng->router(0).sim().now(), r, handled});
              });
            });
          }
        });
  }

  /// Post-run harvest into plain-data slots (this shard's rows only).
  void collect(const std::vector<mesh::ServiceDeployment*>& dep_of_region,
               std::vector<MegaRegionResult>& slots, std::uint64_t& events) {
    audit_task.cancel();
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const mesh::ClusterId region = owned[i];
      const ClientSummary summary =
          summarize_records(clients[i]->records(), 0.0);
      MegaRegionResult& out = slots[region];
      out.requests = clients[i]->completed();
      out.success_rate = summary.success_rate;
      out.p50 = summary.latency.p50;
      out.p99 = summary.latency.p99;
      out.handled = dep_of_region[region]->completed();
    }
    events = sim.executed();
  }
};

}  // namespace

MegaResult run_mega(const MegaConfig& config) {
  L3_EXPECTS(config.regions >= 1);
  L3_EXPECTS(config.regions <= 256);  // delivered-key origin-cluster field
  L3_EXPECTS(config.shards >= 1);
  L3_EXPECTS(config.shards <= config.regions);
  L3_EXPECTS(config.replicas_per_region >= 1);
  L3_EXPECTS(config.duration > 0.0);
  L3_EXPECTS(!config.chaos || config.regions >= 3);

  const std::size_t regions = config.regions;
  const std::size_t shards = config.shards;

  sim::ShardEngine::Config ecfg;
  ecfg.shards = shards;
  ecfg.mailbox_capacity = config.mailbox_capacity;
  sim::ShardEngine engine(ecfg);
  std::vector<std::size_t> owners(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    owners[r] = region_owner(r, regions, shards);
  }
  engine.set_cluster_owners(std::move(owners));
  for (std::uint32_t i = 0; i < regions; ++i) {
    for (std::uint32_t j = 0; j < regions; ++j) {
      if (i != j) engine.set_cluster_lookahead(i, j, MegaConfig::wan_base);
    }
  }

  std::vector<mesh::ServiceDeployment*> dep_of_region(regions, nullptr);
  std::vector<MegaRegionResult> region_slots(regions);
  std::vector<std::uint64_t> shard_events(shards, 0);
  std::vector<MegaAuditEntry> audit;

  const auto wall_start = std::chrono::steady_clock::now();
  engine.run([&](std::size_t shard) {
    auto state =
        std::make_unique<ShardState>(config, engine, shard, dep_of_region);
    engine.sync();  // every dep_of_region slot is filled
    state->wire(dep_of_region);
    if (shard == 0) state->start_audit(dep_of_region, audit);
    engine.sync();  // remote declarations done, load armed everywhere
    state->router.run_until(config.duration + 5.0);
    state->collect(dep_of_region, region_slots, shard_events[shard]);
    engine.sync();  // peers may still execute events referencing our state
    state.reset();  // destroy on the shard's own thread
  });
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;

  MegaResult result;
  result.regions = std::move(region_slots);
  result.audit = std::move(audit);
  result.shards = shards;
  for (const MegaRegionResult& r : result.regions) {
    result.total_requests += r.requests;
  }
  for (const std::uint64_t e : shard_events) result.total_events += e;
  result.mailbox = engine.mailbox_stats();
  result.barrier = engine.barrier_stats();
  result.wall_seconds = wall.count();
  return result;
}

std::string MegaResult::digest() const {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "mega regions=%zu total_requests=%llu total_events=%llu\n",
                regions.size(),
                static_cast<unsigned long long>(total_requests),
                static_cast<unsigned long long>(total_events));
  out += buf;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const MegaRegionResult& row = regions[r];
    std::snprintf(buf, sizeof buf,
                  "region=%zu requests=%llu ok=%.17g p50=%.17g p99=%.17g "
                  "handled=%llu\n",
                  r, static_cast<unsigned long long>(row.requests),
                  row.success_rate, row.p50, row.p99,
                  static_cast<unsigned long long>(row.handled));
    out += buf;
  }
  for (const MegaAuditEntry& a : audit) {
    std::snprintf(buf, sizeof buf, "audit t=%.17g region=%u handled=%llu\n",
                  a.time, a.region,
                  static_cast<unsigned long long>(a.handled));
    out += buf;
  }
  return out;
}

}  // namespace l3::workload
