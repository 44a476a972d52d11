// A service deployment: N replicas of one service inside one cluster — the
// unit a TrafficSplit backend points at. Incoming requests are spread over
// replicas least-loaded-first (the in-cluster balancing Kubernetes/Linkerd
// provides); the application logic itself is pluggable via ServiceBehavior
// so the same substrate hosts both trace-replay API workloads (§5.1 "TIER
// Mobility") and the DeathStarBench call graph.
#pragma once

#include "l3/common/rng.h"
#include "l3/common/slot_pool.h"
#include "l3/common/time.h"
#include "l3/mesh/replica.h"
#include "l3/mesh/types.h"
#include "l3/sim/simulator.h"
#include "l3/trace/span.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace l3 {
namespace trace {
class Tracer;  // spans are recorded only when a tracer is attached
}  // namespace trace

namespace mesh {

class Mesh;  // behaviors may issue downstream calls through the mesh

/// Everything a behavior may touch while handling one request.
struct BehaviorContext {
  sim::Simulator& sim;   ///< to schedule execution-time delays
  Mesh& mesh;            ///< to call downstream services
  ClusterId cluster;     ///< the cluster this replica runs in
  SplitRng& rng;         ///< deployment-local random stream
  int depth;             ///< call depth (loop guard for downstream calls)
  /// Trace context of the enclosing server span; behaviors propagate it
  /// into downstream calls so multi-hop call trees stay connected.
  trace::SpanContext trace{};
};

/// Server-side application logic of a deployment. `invoke` is asynchronous:
/// implementations schedule whatever execution delays / downstream calls
/// they need and fire `done` exactly once.
class ServiceBehavior {
 public:
  virtual ~ServiceBehavior() = default;
  virtual void invoke(const BehaviorContext& ctx, OutcomeFn done) = 0;
};

/// Behavior whose handling time is a fixed-parameter log-normal draw —
/// handy for examples and tests.
class FixedLatencyBehavior final : public ServiceBehavior {
 public:
  /// @param median   median handling time (seconds)
  /// @param p99      99th-percentile handling time (seconds, > median)
  /// @param success  probability a request succeeds
  FixedLatencyBehavior(SimDuration median, SimDuration p99,
                       double success = 1.0);

  void invoke(const BehaviorContext& ctx, OutcomeFn done) override;

 private:
  double mu_;
  double sigma_;
  double success_;
};

/// Configuration of one deployment.
struct DeploymentConfig {
  std::size_t replicas = 3;          ///< paper §5.1: three replicas/cluster
  std::size_t concurrency = 100;     ///< slots per replica
  std::size_t queue_capacity = 512;  ///< waiting requests per replica
};

/// N replicas of a service in one cluster.
class ServiceDeployment {
 public:
  ServiceDeployment(std::string service, ClusterId cluster,
                    DeploymentConfig config,
                    std::unique_ptr<ServiceBehavior> behavior,
                    sim::Simulator& sim, Mesh& mesh, SplitRng rng);

  ServiceDeployment(const ServiceDeployment&) = delete;
  ServiceDeployment& operator=(const ServiceDeployment&) = delete;

  /// Handles one request: picks the least-loaded replica, runs the behavior
  /// and reports the Outcome (a queue-overflow rejection reports
  /// `success=false, rejected=true` immediately).
  void handle(int depth, OutcomeFn done) {
    handle(depth, trace::SpanContext{}, std::move(done));
  }

  /// As above, recording queue/service child spans under `parent` when it
  /// is sampled and a tracer is attached.
  void handle(int depth, trace::SpanContext parent, OutcomeFn done);

  /// Attaches (or detaches, nullptr) the tracer spans are recorded into.
  /// Normally called through Mesh::set_tracer.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  const std::string& service() const { return service_; }
  ClusterId cluster() const { return cluster_; }

  /// The simulator this deployment executes on — in a sharded run, the
  /// OWNING shard's simulator (cross-shard callers must post work through
  /// the shard router rather than schedule here directly).
  sim::Simulator& sim() { return sim_; }
  /// The owning shard's mesh view.
  Mesh& mesh() { return mesh_; }

  /// Marks the whole deployment down/up (outage injection). While down,
  /// requests are rejected immediately.
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Total load across replicas (active + queued).
  std::size_t load() const;

  /// Lifetime counters. `completed` counts every call whose behavior
  /// finished on a live replica, including replicas since scaled down.
  std::uint64_t completed() const { return completed_; }
  std::uint64_t rejected() const { return rejected_; }

  std::size_t replica_count() const { return replicas_.size(); }
  const Replica& replica(std::size_t i) const { return *replicas_[i]; }

  /// Crashes replica `i` (fault injection): its queued requests and its
  /// in-flight requests all fail immediately through the normal completion
  /// path — every caller's `done` fires exactly once with a failure, every
  /// held concurrency slot is released exactly once, and the behavior's
  /// late done-callback for an in-flight request is absorbed when it
  /// eventually fires. The replica receives no further traffic until
  /// restart_replica(). No-op when already crashed.
  void crash_replica(std::size_t i);

  /// Brings a crashed replica back into service. No-op when not crashed.
  void restart_replica(std::size_t i);

  /// Replicas currently in service (not crashed).
  std::size_t alive_replicas() const;

  /// Lifetime count of requests failed by replica crashes (in-flight plus
  /// queued at the moment of the crash).
  std::uint64_t crash_failed() const { return crash_failed_; }

  /// Pooled server-side call states currently pending (tests).
  std::size_t live_calls() const { return calls_.live(); }

  /// Adds one replica with the deployment's configured concurrency/queue
  /// (autoscaling support, §3.2).
  void add_replica();

  /// Removes one idle replica (load == 0). Returns false when only one
  /// replica remains or none is idle — draining is not modelled, so a busy
  /// replica is never torn down.
  bool remove_idle_replica();

  /// Combined concurrency across replicas (capacity proxy for scaling).
  std::size_t total_concurrency() const;

  ServiceBehavior& behavior() { return *behavior_; }

 private:
  /// Pooled per-request server-side state: the completion callback, trace
  /// context and the replica slot's release token. The replica job and the
  /// behavior-done continuation each capture only {this, handle}, so both
  /// stay inline in their SmallFn wrappers; the rejection path reads `done`
  /// straight out of the pool (no defensive copy).
  struct PendingCall {
    OutcomeFn done;
    trace::SpanContext server{};
    SimTime enqueued = 0.0;
    int depth = 0;
    /// The replica handling the call. A pointer, not an index: scale-down
    /// erases replicas and shifts later indices, while each Replica stays
    /// put in its unique_ptr. Only idle replicas are erased, so no live
    /// call ever points at a freed one.
    const Replica* replica = nullptr;
    ReleaseToken release;
  };
  using CallHandle = common::SlotPool<PendingCall>::Handle;

  /// Runs the behavior for a call whose replica slot was just granted.
  void run_call(CallHandle handle, ReleaseToken release);
  /// Fires the behavior-done tail: release the slot, close the span,
  /// recycle the pool entry and complete the caller.
  void complete_call(CallHandle handle, const Outcome& outcome);

  std::string service_;
  ClusterId cluster_;
  std::string cluster_name_;  ///< span label, resolved at construction
  std::string server_span_name_;  ///< interned "server:<service>"
  DeploymentConfig config_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<ServiceBehavior> behavior_;
  sim::Simulator& sim_;
  Mesh& mesh_;
  SplitRng rng_;
  trace::Tracer* tracer_ = nullptr;
  bool down_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t crash_failed_ = 0;
  /// In-flight calls failed by crash_replica whose behavior continuation
  /// has not fired yet; complete_call absorbs exactly this many stale
  /// handles before treating one as a double-fired done callback.
  std::uint64_t crash_zombies_ = 0;
  std::size_t crashed_count_ = 0;  ///< maintained by crash/restart_replica
  std::size_t rr_cursor_ = 0;  // tie-break rotation among equally loaded
  common::SlotPool<PendingCall> calls_;
};

}  // namespace mesh
}  // namespace l3
