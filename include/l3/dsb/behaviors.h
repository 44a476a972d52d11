// Generic microservice behaviors for application call graphs.
//
// Every DeathStarBench-style service does the same three things: burn some
// execution time (two-component mixture: fast path around the median, slow
// path around the P99, scaled by the cluster's current load factors), call
// downstream dependencies, and report success. These classes capture that
// shape declaratively:
//
//  * StagedBehavior — compute, then a sequence of STAGES; within a stage,
//    calls run in parallel; across stages, sequentially. Each call is
//    either mesh-routed (stateless services, subject to the TrafficSplit
//    under test) or cluster-local (stateful tiers), and can be gated by a
//    probability (cache-miss fall-through).
//  * MixBehavior — a frontend: picks one operation per request from a
//    weighted mix, each operation being its own stage list.
//
// Both hotel-reservation and social-network are built from these.
//
// Per-request state lives in a behavior-owned SlotPool of stage frames, and
// every continuation captures only {this, frame handle} (plus the target
// deployment on the local path), so the whole call graph runs without heap
// allocation. Each call's target (a Proxy for mesh calls, a
// ServiceDeployment for local ones) is resolved on first use and cached:
// a behavior belongs to exactly one deployment, so it always runs in the
// same cluster of the same mesh.
#pragma once

#include "l3/common/slot_pool.h"
#include "l3/common/time.h"
#include "l3/dsb/disturbance.h"
#include "l3/mesh/deployment.h"

#include <cstdint>
#include <string>
#include <vector>

namespace l3::mesh {
class Proxy;
}  // namespace l3::mesh

namespace l3::dsb {

/// Execution-time parameters of one service (seconds; mixture model).
struct ServiceProfile {
  double median = 0.0015;
  double p99 = 0.008;
  /// Exponent on the cluster slowdown factors; databases are hit harder
  /// (>1) per §1's slow-database observation.
  double load_sensitivity = 1.0;
};

/// One downstream call within a stage.
struct Call {
  std::string service;
  /// Cluster-local (stateful tier) instead of mesh-routed.
  bool local = false;
  /// Probability the call happens at all (1.0 = always; <1 models
  /// cache-miss fall-through or optional paths).
  double probability = 1.0;
};

/// Calls within a stage run in parallel; stages run sequentially.
using Stage = std::vector<Call>;

/// A weighted operation of a frontend service.
struct Operation {
  double weight = 1.0;
  std::vector<Stage> stages;
};

/// Shared compute/success mechanics (see file comment).
class DsbBehavior : public mesh::ServiceBehavior {
 public:
  /// Fraction of requests taking the slow path.
  static constexpr double kTailWeight = 0.02;
  /// Log-sigma of each mixture component.
  static constexpr double kComponentSigma = 0.30;

 protected:
  /// A stage list plus, parallel to it, each call's target — filled on the
  /// call's first use (not at construction), so proxies are created in the
  /// same order as when every call looked its target up by name.
  struct Plan {
    struct Target {
      mesh::Proxy* proxy = nullptr;                   ///< mesh-routed call
      mesh::ServiceDeployment* deployment = nullptr;  ///< local call
    };
    explicit Plan(std::vector<Stage> stage_list);

    std::vector<Stage> stages;
    std::vector<std::vector<Target>> targets;
  };

  DsbBehavior(const ServiceProfile& profile, const ClusterLoadModel& load,
              double success_rate);

  bool sample_success(const mesh::BehaviorContext& ctx) const;

  /// Draws the execution time, then runs `plan` (parallel within a stage,
  /// sequential across) and fires `done(Outcome{ok && all_calls_ok})`.
  void start(const mesh::BehaviorContext& ctx, Plan& plan, bool ok,
             mesh::OutcomeFn done);

 private:
  /// Pooled per-request state. The context's sim, mesh, cluster and RNG are
  /// the same for every request of this behavior, so they are bound once
  /// (see bind()); only the per-request fields live here.
  struct Frame {
    mesh::OutcomeFn done;
    trace::SpanContext trace{};
    int depth = 0;
    Plan* plan = nullptr;
    std::uint32_t stage = 0;      ///< index of the running stage
    std::uint32_t remaining = 0;  ///< calls of that stage still in flight
    bool ok = true;
  };
  using FrameHandle = common::SlotPool<Frame>::Handle;

  /// Records the first request's context; asserts every later one matches
  /// (one behavior instance per deployment).
  void bind(const mesh::BehaviorContext& ctx);
  /// One execution-time draw under the cluster's current load factors.
  SimDuration sample_exec();
  /// Skips empty stages and issues every call of the next one, or
  /// completes the frame when no stage is left.
  void run_stage(FrameHandle handle);
  /// Issues call `index` of the running stage; completes through
  /// call_done() exactly once (synchronously when gated off).
  void send_call(FrameHandle handle, std::size_t index);
  void call_done(FrameHandle handle, bool ok);

  const ClusterLoadModel& load_;
  double median_;
  double tail_level_;
  double sensitivity_;
  double success_rate_;

  // Bound context (nullptr until the first request).
  sim::Simulator* sim_ = nullptr;
  mesh::Mesh* mesh_ = nullptr;
  mesh::ClusterId cluster_ = 0;
  SplitRng* rng_ = nullptr;

  /// pow(factor, sensitivity_) for the last factors seen, recomputed only
  /// when the cluster's factors change.
  ClusterLoadModel::Factors cached_factors_{};
  double median_scale_ = 1.0;
  double tail_scale_ = 1.0;

  common::SlotPool<Frame> frames_;
};

/// Compute, then a fixed stage list (most services).
class StagedBehavior final : public DsbBehavior {
 public:
  StagedBehavior(const ServiceProfile& profile, const ClusterLoadModel& load,
                 double success_rate, std::vector<Stage> stages);

  void invoke(const mesh::BehaviorContext& ctx, mesh::OutcomeFn done) override;

 private:
  Plan plan_;
};

/// Compute, then one operation drawn from a weighted mix (frontends).
class MixBehavior final : public DsbBehavior {
 public:
  MixBehavior(const ServiceProfile& profile, const ClusterLoadModel& load,
              double success_rate, std::vector<Operation> operations);

  void invoke(const mesh::BehaviorContext& ctx, mesh::OutcomeFn done) override;

 private:
  std::vector<double> cumulative_;  // normalised cumulative weights
  std::vector<Plan> plans_;         // one per operation; never resized
};

}  // namespace l3::dsb
