// The "mega" scale scenario: a 10k-backend mesh sharded across the
// conservative-lookahead parallel engine (l3/sim/shard_engine.h), and the
// only runner that shards. The three-cluster fig and DSB topologies are
// RNG-coupled through the legacy WAN discipline, so their runners use one
// plain Simulator. Mega uses the presampled WAN discipline
// (Proxy::enable_presampled): both WAN legs are drawn source-side at send
// time, so the regions decouple and can be partitioned across shards with
// real parallel speedup.
//
// Topology: `regions` single-cluster regions, each deploying
// `replicas_per_region` replicas of one "api" service (the default
// 24 × 420 = 10 080 backends), joined by 5 ms one-way WAN links with 10 %
// jitter and no route flaps. Every region runs its own open-loop client,
// Prometheus-style scraper + TSDB, and L3 controller — the paper's
// production layout (§3) scaled out. Regions are assigned to shards in
// contiguous blocks (owner(r) = r·shards/regions); all cross-region
// traffic rides the epoch-flushed mailboxes.
//
// Determinism: MegaResult::digest() is byte-identical for every shard
// count (pinned by the workload_mega tests and by check.sh's ledger
// digest gate, where mega and mega-sharded share one digest). The digest
// excludes the mailbox and barrier counters and wall-clock throughput,
// which are shard-count-dependent by construction.
#pragma once

#include "l3/common/time.h"
#include "l3/mesh/proxy_cost.h"
#include "l3/sim/mailbox.h"
#include "l3/sim/shard_engine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace l3::workload {

/// Configuration of one mega run. The defaults build the 10k-backend
/// scenario; tests shrink regions/replicas/duration for speed.
struct MegaConfig {
  /// Single-cluster regions (= clusters = proxies = controllers).
  std::size_t regions = 24;
  /// Replicas of the "api" service per region (24 × 420 = 10 080).
  std::size_t replicas_per_region = 420;
  /// Simulator shards; must satisfy 1 <= shards <= regions.
  std::size_t shards = 1;
  std::uint64_t seed = 42;
  /// Measured duration; the run drains 5 s past this for in-flight
  /// responses.
  SimDuration duration = 10.0;
  double rps_per_region = 200.0;

  /// One-way delay of every cross-region link (10 % jitter, no route
  /// flaps). It doubles as the cross-region lookahead, so it must stay the
  /// registered link floor (the WanModel is frozen after setup).
  static constexpr SimDuration wan_base = 0.005;

  SimDuration scrape_interval = 2.0;
  /// Cadence of the shard-0 audit coordinator, which round-trips a keyed
  /// mailbox message to every region and merges the replies into one
  /// cross-shard snapshot (0 disables).
  SimDuration audit_interval = 1.0;

  /// Arm the chaos timeline: replica crashes in every region where
  /// r % 7 == 3, one WAN brownout and one partition window. Crash events
  /// are injected on the owning shard; WAN faults are installed into every
  /// shard's WanModel copy identically (they are pure functions of time).
  bool chaos = false;

  /// Data-plane proxy cost model applied in every region's mesh
  /// (DESIGN.md §16). Entirely source-side deterministic state, so the
  /// digest stays byte-identical for every shard count. Zero-cost defaults
  /// reproduce the cost-free mega run exactly.
  mesh::ProxyCostConfig proxy_cost;

  /// Cross-shard mailbox flush threshold (ShardEngine::Config).
  std::size_t mailbox_capacity = 256;
};

/// Per-region outcome (client-side view of that region's proxy).
struct MegaRegionResult {
  std::uint64_t requests = 0;  ///< completed client requests
  double success_rate = 1.0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Requests the region's deployment handled (local + remote callers).
  std::uint64_t handled = 0;
};

/// One audit reply merged on shard 0: region `region` had handled
/// `handled` requests when the coordinator's probe arrived; `time` is the
/// reply's delivery time on shard 0.
struct MegaAuditEntry {
  SimTime time = 0.0;
  std::uint32_t region = 0;
  std::uint64_t handled = 0;
};

/// Result of one mega run.
struct MegaResult {
  std::vector<MegaRegionResult> regions;
  /// The shard-0 audit coordinator's merged cross-shard snapshots, in
  /// delivery order (deterministic: the mailbox drain is keyed).
  std::vector<MegaAuditEntry> audit;
  std::uint64_t total_requests = 0;
  /// Events executed across all shards. Shard-count-invariant: windowing
  /// and mailbox flushes create no events of their own.
  std::uint64_t total_events = 0;
  std::size_t shards = 1;
  /// Cross-shard mailbox traffic (shard-count-DEPENDENT; excluded from
  /// the digest).
  sim::MailboxStats mailbox;
  /// Conservative-barrier counters summed over shards (scheduling-
  /// dependent; excluded from the digest).
  sim::BarrierStats barrier;
  /// Wall-clock seconds from entering the engine run to its return: each
  /// shard body's state build and wiring, the simulation, and the state
  /// teardown (not deterministic; excluded from the digest).
  double wall_seconds = 0.0;

  /// Deterministic run fingerprint: per-region counts and latency
  /// percentiles (full precision), the audit log, and the global event
  /// count. Byte-identical for every shard count.
  std::string digest() const;
};

/// Runs the mega scenario. Deterministic in (config minus shards /
/// mailbox_capacity): those two knobs change scheduling, not results.
MegaResult run_mega(const MegaConfig& config = {});

}  // namespace l3::workload
