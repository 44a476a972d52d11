// The client-side sidecar proxy for one (source cluster, target service)
// pair. It owns the request hot path: backend selection, WAN transit both
// ways, client-side timeout, and the per-backend Prometheus metrics
// (counters, success/failure latency histograms, in-flight gauge) that are
// the only signal L3 ever sees.
//
// Two routing modes are supported:
//  * kWeighted (default) — weighted sampling per the TrafficSplit, the SMI
//    mechanism the paper's L3 drives;
//  * kPeakEwmaP2C — Linkerd's in-proxy balancer (§6 "Beyond Round Robin"):
//    power-of-two-choices over a client-side PeakEWMA latency score
//    weighted by outstanding requests, deciding per request with no
//    control-plane loop. Provided for the per-request-vs-TrafficSplit
//    comparison bench.
//
// Optional Envoy-style outlier detection (§5.1) ejects failing backends
// from the rotation for a fixed duration.
#pragma once

#include "l3/common/rng.h"
#include "l3/common/slot_pool.h"
#include "l3/common/time.h"
#include "l3/mesh/deployment.h"
#include "l3/mesh/health.h"
#include "l3/mesh/outlier.h"
#include "l3/mesh/pick_kernels.h"
#include "l3/mesh/proxy_cost.h"
#include "l3/mesh/traffic_split.h"
#include "l3/mesh/types.h"
#include "l3/mesh/wan.h"
#include "l3/metrics/ewma.h"
#include "l3/metrics/registry.h"
#include "l3/metrics/sample_ring.h"
#include "l3/sim/simulator.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace l3::sim {
class ShardRouter;  // cross-shard event posting (l3/sim/shard_engine.h)
}  // namespace l3::sim

namespace l3::mesh {

/// How the proxy picks a backend for each request.
enum class RoutingMode {
  kWeighted,     ///< TrafficSplit weights (SMI semantics)
  kPeakEwmaP2C,  ///< per-request power-of-two-choices on PeakEWMA latency
};

/// Proxy configuration.
struct ProxyConfig {
  /// Client-side request timeout; 0 disables. A timed-out request is
  /// recorded as a failure with latency == timeout (the client's view).
  SimDuration timeout = 30.0;
  RoutingMode routing = RoutingMode::kWeighted;
  OutlierDetectionConfig outlier;
  /// Data-plane cost model (DESIGN.md §16): per-request sidecar CPU, the
  /// bounded-concurrency proxy service stage and the per-edge connection
  /// pool with mTLS handshake costs. The zero-cost defaults disable the
  /// model entirely (byte-identical behaviour).
  ProxyCostConfig cost;
};

/// Sidecar proxy: routes calls from one cluster to one service's backends.
class Proxy {
 public:
  /// All referenced objects must outlive the proxy; `deployments` must be
  /// aligned index-for-index with `split.backends()`.
  Proxy(sim::Simulator& sim, const WanModel& wan, ClusterId source,
        TrafficSplit& split, std::vector<ServiceDeployment*> deployments,
        metrics::Registry& registry, const HealthChecker* health,
        SplitRng rng, ProxyConfig config,
        const std::vector<std::string>& cluster_names);

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Sends one request through the mesh; `done` fires exactly once with the
  /// response (success, failure or timeout).
  void send(int depth, ResponseFn done) {
    send(depth, trace::SpanContext{}, std::move(done));
  }

  /// As above, recording a proxy span (with WAN-transit and server child
  /// spans) under `parent` when it is sampled and a tracer is attached.
  void send(int depth, trace::SpanContext parent, ResponseFn done);

  /// Attaches (or detaches, nullptr) the tracer spans are recorded into.
  /// Normally called through Mesh::set_tracer. Incompatible with the
  /// presampled discipline (the dest-side execution runs on another shard,
  /// where this tracer must not be touched).
  void set_tracer(trace::Tracer* tracer) {
    L3_EXPECTS(!(presampled_ && tracer != nullptr));
    tracer_ = tracer;
  }

  /// Switches this proxy to the presampled WAN discipline for sharded
  /// runs: BOTH transit delays are drawn source-side at send time (instead
  /// of the legacy scheme, which draws the return delay dest-side on this
  /// proxy's stream), and the dest-side work is posted through `router`
  /// under a shard-count-invariant key. Must be called before the first
  /// send; requires no tracer. The RNG draw sequence differs from the
  /// legacy discipline, so presampled runs have their own goldens — but
  /// they are byte-identical across any shard count.
  void enable_presampled(sim::ShardRouter* router);

  const TrafficSplit& split() const { return split_; }
  ClusterId source() const { return source_; }

  /// Requests currently in flight through this proxy (all backends).
  std::uint64_t inflight() const { return inflight_total_; }

  /// Lifetime request count (for tests/examples).
  std::uint64_t sent() const { return sent_; }

  /// Outlier-detection state (for tests/observability).
  const OutlierDetector& outlier_detector() const { return outlier_; }

  /// Cost-model accounting (all zeros when the model is disabled).
  const ProxyCostStats& cost_stats() const { return cost_stats_; }

  /// Idle pooled connections on the edge to backend `idx` (tests).
  std::size_t idle_connections(std::size_t idx) const {
    return cost_enabled_ ? pools_[idx].idle() : 0;
  }

  RoutingMode routing_mode() const { return config_.routing; }

  /// Picks a backend exactly as send() would, without sending — consumes
  /// the proxy's RNG stream. Exposed for the request_path bench and the
  /// picker distribution tests.
  std::size_t pick_backend() { return pick(); }

  /// Pooled call states currently in flight. A finished call's slot is
  /// recycled as soon as its deadline entry reaches the front of the
  /// timeout ring (usually immediately — entries finish roughly FIFO), so
  /// this tracks the in-flight count rather than the armed-timeout count.
  /// Observability for the pool-reuse tests.
  std::size_t live_calls() const { return calls_.live(); }

 private:
  struct BackendSlot {
    ServiceDeployment* deployment;
    std::string dst_name;      ///< backend cluster name (span label)
    std::string wan_out_name;  ///< interned "wan:src->dst" span name
    std::string wan_in_name;   ///< interned "wan:dst->src" span name
    metrics::Counter* requests;
    metrics::Counter* success;
    metrics::Counter* failure;
    metrics::HistogramSeries* latency_success;
    metrics::HistogramSeries* latency_failure;
    metrics::Counter* latency_success_sum;
    metrics::Counter* latency_failure_sum;
    metrics::Gauge* inflight;
    /// Client-side latency filter + outstanding count for kPeakEwmaP2C.
    metrics::Ewma p2c_latency;  // kPeakEwma mode
    std::uint32_t outstanding = 0;
  };

  /// Per-request state, pooled (l3/common/slot_pool.h). In-flight events
  /// reference it by handle; `pending` counts the visitors that still hold
  /// the slot (the response chain, plus the deadline-ring entry when a
  /// timeout is armed) and the slot is recycled only when the last one
  /// settles — so the timeout path can never observe a recycled slot, and
  /// the handle's generation check backstops even that invariant.
  struct CallState {
    SimTime start = 0.0;
    std::uint32_t backend = 0;
    std::uint8_t pending = 0;
    bool finished = false;
    trace::SpanContext span{};
    ResponseFn done;
  };
  using CallHandle = common::SlotPool<CallState>::Handle;

  /// Picks a backend according to the routing mode, skipping unhealthy and
  /// ejected backends when possible.
  std::size_t pick();
  std::size_t pick_weighted();
  std::size_t pick_p2c();

  /// Recomputes avail_mask_ when a health/outlier version bump or an
  /// ejection expiry invalidated it (no-op otherwise).
  void refresh_availability();

  /// Rebuilds the cumulative-weight picker table when the TrafficSplit
  /// generation or the availability mask changed (no-op otherwise).
  void refresh_picker();

  /// P2C cost: PeakEWMA latency × (outstanding + 1) — Linkerd's score.
  double p2c_cost(const BackendSlot& slot) const;

  /// Runs the cost model for one request to backend `idx`: leases a
  /// connection on that edge (handshake when none is warm) and admits the
  /// request into the bounded-concurrency CPU stage. Returns the total
  /// delay (queueing + service) folded into the outbound leg. Only called
  /// when the model is enabled; draws no RNG, schedules no events.
  SimDuration admit_cost(std::size_t idx);

  /// The presampled-discipline outbound leg: draws both transit delays on
  /// this proxy's stream and posts the dest-side execution through the
  /// shard router (see enable_presampled). `outbound` is the full
  /// source-side delay: the sampled WAN leg plus any cost-model delay.
  void send_presampled(CallHandle handle, int depth, BackendSlot& slot,
                       SimDuration outbound);

  void on_response(CallHandle handle, const Outcome& outcome);
  void finish(CallState& state, bool success, SimDuration latency,
              bool timed_out);
  /// Drops one pending visitor; releases the slot when none remain.
  void settle(CallHandle handle, CallState& state);

  // -- Timeout machinery ----------------------------------------------------
  //
  // The proxy's timeout is a single constant, so deadlines are FIFO: the
  // ring below holds {deadline, handle} in arrival order and ONE armed
  // timer event stands in for all of them — instead of scheduling (and
  // dispatching) one timeout event per request, which dominated the event
  // queue at 1 of every 5 events. Invariant: whenever the ring is
  // non-empty, a timer is armed at or before the front deadline, and a
  // re-arm lands exactly on the front deadline — so a call that really
  // times out is still processed at exactly start + timeout, same as a
  // per-request event. The timeout path draws no RNG, so the draw
  // sequence is untouched either way.

  /// One armed deadline: the request's call-state handle plus when it
  /// times out. Entries are pushed at send() in deadline order.
  struct TimeoutEntry {
    SimTime deadline = 0.0;
    CallHandle handle{};
  };

  void arm_timeout_timer(SimTime deadline);
  /// The shared timer: settles finished front entries, times out due ones,
  /// then re-arms at the next live front deadline.
  void on_timeout_timer();
  /// Settles + pops front entries whose calls already finished, so their
  /// slots recycle promptly instead of idling until the deadline.
  void drain_finished_timeouts();

  sim::Simulator& sim_;
  const WanModel& wan_;
  /// Set by enable_presampled(): remote picks travel through this router
  /// instead of direct scheduling. Null in the legacy (single-simulator)
  /// discipline.
  sim::ShardRouter* router_ = nullptr;
  bool presampled_ = false;
  ClusterId source_;
  std::string src_name_;  ///< source cluster name (span label)
  std::string proxy_span_name_;  ///< interned "proxy:<service>"
  trace::Tracer* tracer_ = nullptr;
  TrafficSplit& split_;
  std::vector<BackendSlot> backends_;
  const HealthChecker* health_;
  SplitRng rng_;
  ProxyConfig config_;
  OutlierDetector outlier_;
  std::uint64_t inflight_total_ = 0;
  std::uint64_t sent_ = 0;

  // Data-plane cost model (DESIGN.md §16); all empty/unused when disabled.
  bool cost_enabled_ = false;
  ProxyCpuStage cpu_stage_;
  std::vector<EdgeConnectionPool> pools_;  ///< one per backend edge
  ProxyCostStats cost_stats_;
  // Low-cardinality audit families: one series per proxy ({split, src}),
  // not per edge. Registered only when the model is enabled, so zero-cost
  // runs keep a byte-identical registry.
  metrics::Counter* audit_handshakes_ = nullptr;
  metrics::Counter* audit_pool_hits_ = nullptr;
  metrics::Counter* audit_conn_closed_ = nullptr;

  common::SlotPool<CallState> calls_;

  // Availability cache: bit i set = backend i in rotation (all-true
  // fallback when nothing is available). Exact until a health/outlier
  // version bump or the next ejection expiry.
  std::uint64_t avail_mask_ = 0;
  SimTime avail_valid_until_ = 0.0;
  std::uint64_t health_version_seen_ = 0;
  std::uint64_t outlier_version_seen_ = 0;
  bool avail_valid_ = false;

  // Weighted-picker cache: cumulative weights over the available backends,
  // rebuilt only when (split generation, avail_mask_) changes.
  std::vector<std::uint64_t> cum_weights_;
  std::vector<std::uint32_t> cum_index_;
  std::uint64_t cum_total_ = 0;
  std::uint64_t picker_generation_ = 0;
  std::uint64_t picker_mask_ = 0;
  bool picker_valid_ = false;

  // P2C candidate cache: the available-backend index list, rebuilt only
  // when the availability mask changes (mask 0 = never built; a live mask
  // is never 0 thanks to the all-true fallback).
  std::vector<std::uint32_t> p2c_scratch_;
  std::uint64_t p2c_mask_ = 0;

  metrics::SampleRing<TimeoutEntry> timeouts_;  ///< deadline order
  bool timeout_timer_armed_ = false;
};

}  // namespace l3::mesh
