#include "l3/mesh/deployment.h"

#include "l3/common/assert.h"
#include "l3/common/lognormal.h"
#include "l3/mesh/mesh.h"
#include "l3/trace/tracer.h"

#include <limits>
#include <utility>

namespace l3::mesh {

FixedLatencyBehavior::FixedLatencyBehavior(SimDuration median, SimDuration p99,
                                           double success)
    : success_(success) {
  L3_EXPECTS(median > 0.0 && p99 > median);
  L3_EXPECTS(success >= 0.0 && success <= 1.0);
  const LogNormalParams p = fit_lognormal(median, p99, 0.99);
  mu_ = p.mu;
  sigma_ = p.sigma;
}

void FixedLatencyBehavior::invoke(const BehaviorContext& ctx, OutcomeFn done) {
  const SimDuration exec = ctx.rng.lognormal(mu_, sigma_);
  const bool ok = ctx.rng.bernoulli(success_);
  ctx.sim.schedule_after(
      exec, [done = std::move(done), ok]() mutable { done(Outcome{ok}); });
}

ServiceDeployment::ServiceDeployment(std::string service, ClusterId cluster,
                                     DeploymentConfig config,
                                     std::unique_ptr<ServiceBehavior> behavior,
                                     sim::Simulator& sim, Mesh& mesh,
                                     SplitRng rng)
    : service_(std::move(service)),
      cluster_(cluster),
      cluster_name_(mesh.cluster_names().at(cluster)),
      server_span_name_("server:" + service_),
      config_(config),
      behavior_(std::move(behavior)),
      sim_(sim),
      mesh_(mesh),
      rng_(rng),
      tracer_(mesh.tracer()) {
  L3_EXPECTS(config.replicas >= 1);
  L3_EXPECTS(behavior_ != nullptr);
  replicas_.reserve(config.replicas);
  for (std::size_t i = 0; i < config.replicas; ++i) {
    replicas_.push_back(
        std::make_unique<Replica>(config.concurrency, config.queue_capacity));
  }
}

void ServiceDeployment::handle(int depth, trace::SpanContext parent,
                               OutcomeFn done) {
  L3_EXPECTS(done != nullptr);
  // Server-side span covering queue wait + behavior execution (including
  // downstream calls). Opened only for sampled requests.
  trace::SpanContext server{};
  if (tracer_ != nullptr && parent.sampled()) {
    server = tracer_->start_span(parent, trace::SpanKind::kService,
                                 server_span_name_, cluster_name_,
                                 service_);
  }
  // A deployment whose replicas all crashed rejects like a down one: the
  // request reached the cluster but nothing can serve it. The crashed
  // count is maintained by crash/restart_replica, so this check is two
  // loads rather than a walk over the replica set.
  const std::size_t n = replicas_.size();
  if (down_ || crashed_count_ == n) {
    ++rejected_;
    if (server.sampled()) {
      tracer_->end_span(server, trace::SpanStatus::kError);
    }
    done(Outcome{.success = false, .rejected = true});
    return;
  }
  // Least-loaded live replica, rotating tie-break so equal replicas share
  // evenly. Crashed replicas are skipped — in-cluster balancing notices a
  // dead pod immediately, unlike the cross-cluster health probe. The
  // wrap-around is a compare, not a modulo: integer division twice per
  // request was measurable at millions of requests per second.
  std::size_t best = 0;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  std::size_t idx = rr_cursor_;
  for (std::size_t i = 0; i < n; ++i) {
    if (!replicas_[idx]->crashed()) {
      const std::size_t load = replicas_[idx]->load();
      if (load < best_load) {
        best_load = load;
        best = idx;
        // An idle replica cannot be beaten (later equal loads lose the
        // tie-break, nothing is below zero), so stop scanning. At mega
        // scale — hundreds of mostly-idle replicas per region — this turns
        // the selection from O(replicas) loads into a couple of probes.
        if (load == 0) break;
      }
    }
    ++idx;
    if (idx == n) idx = 0;
  }
  rr_cursor_ = best + 1 == n ? 0 : best + 1;

  // `done` parks in the pool before submit: if the replica rejects the job
  // (the job is destroyed unrun) the callback is still reachable for the
  // rejection path below — no defensive copy needed.
  const CallHandle handle = calls_.acquire();
  PendingCall& call = *calls_.get(handle);
  call.done = std::move(done);
  call.server = server;
  call.enqueued = sim_.now();
  call.depth = depth;
  call.replica = replicas_[best].get();
  const bool accepted = replicas_[best]->submit(
      [this, handle](ReleaseToken release) {
        run_call(handle, std::move(release));
      });
  if (!accepted) {
    ++rejected_;
    if (server.sampled()) {
      tracer_->end_span(server, trace::SpanStatus::kError);
    }
    PendingCall* call2 = calls_.get(handle);
    OutcomeFn parked = std::move(call2->done);
    calls_.release(handle);
    parked(Outcome{.success = false, .rejected = true});
  }
}

void ServiceDeployment::run_call(CallHandle handle, ReleaseToken release) {
  PendingCall* call = calls_.get(handle);
  L3_ASSERT(call != nullptr);  // the slot is held until complete_call
  call->release = std::move(release);
  if (call->server.sampled() && sim_.now() > call->enqueued) {
    // The job waited for a concurrency slot: the queueing component of the
    // paper's tail-latency story, recorded as its own span.
    tracer_->add_span(call->server, trace::SpanKind::kQueue, "queue",
                      cluster_name_, service_, call->enqueued, sim_.now());
  }
  const BehaviorContext ctx{sim_,  mesh_,       cluster_,
                            rng_,  call->depth, call->server};
  behavior_->invoke(ctx, [this, handle](const Outcome& outcome) {
    complete_call(handle, outcome);
  });
}

void ServiceDeployment::complete_call(CallHandle handle,
                                      const Outcome& outcome) {
  PendingCall* call = calls_.get(handle);
  if (call == nullptr) {
    // The call was failed by crash_replica while its behavior was still
    // running: the caller already got its failure and the slot is gone, so
    // the behavior's late done-callback is absorbed here. Any OTHER stale
    // handle means a behavior double-fired its done callback — still
    // caught loudly.
    L3_EXPECTS(crash_zombies_ > 0);
    --crash_zombies_;
    return;
  }
  // Releasing the replica slot pumps its queue, which may re-enter
  // run_call for the next waiting request; the chunked pool keeps `call`
  // stable through that.
  call->release();
  ++completed_;
  if (call->server.sampled()) {
    tracer_->end_span(call->server, outcome.success
                                        ? trace::SpanStatus::kOk
                                        : trace::SpanStatus::kError);
  }
  OutcomeFn done = std::move(call->done);
  calls_.release(handle);
  done(outcome);
}

void ServiceDeployment::crash_replica(std::size_t i) {
  L3_EXPECTS(i < replicas_.size());
  Replica& replica = *replicas_[i];
  if (replica.crashed()) return;
  // Phase 1: stop the replica. Queued jobs (closures over {this, handle})
  // are destroyed unrun; their pool entries are failed below.
  replica.crash();
  ++crashed_count_;
  // Phase 2: collect this replica's pending calls, then fail them in index
  // order. Two phases because failing a call fires its done callback, which
  // may re-enter handle() and mutate the pool mid-iteration.
  std::vector<CallHandle> victims;
  calls_.for_each_live([&](CallHandle h, PendingCall& call) {
    if (call.replica == &replica) victims.push_back(h);
  });
  for (const CallHandle h : victims) {
    PendingCall* call = calls_.get(h);
    L3_ASSERT(call != nullptr);  // collected above; only we release them
    const bool running = static_cast<bool>(call->release);
    if (running) {
      // In flight: release the concurrency slot through the one ReleaseToken
      // (exactly-once is structural), and remember that the behavior's done
      // callback is still going to fire against the now-stale handle.
      call->release();
      ++crash_zombies_;
    }
    ++crash_failed_;
    if (call->server.sampled()) {
      tracer_->end_span(call->server, trace::SpanStatus::kError);
    }
    OutcomeFn done = std::move(call->done);
    calls_.release(h);
    // Same shape as any other failure: the caller (the proxy's response
    // chain) sees a non-success Outcome — requests fail, they don't vanish.
    done(Outcome{.success = false, .rejected = !running});
  }
}

void ServiceDeployment::restart_replica(std::size_t i) {
  L3_EXPECTS(i < replicas_.size());
  Replica& replica = *replicas_[i];
  if (!replica.crashed()) return;
  L3_ASSERT(replica.active() == 0);  // crash_replica released every slot
  replica.restart();
  L3_ASSERT(crashed_count_ > 0);
  --crashed_count_;
}

std::size_t ServiceDeployment::alive_replicas() const {
  return replicas_.size() - crashed_count_;
}

void ServiceDeployment::add_replica() {
  replicas_.push_back(
      std::make_unique<Replica>(config_.concurrency, config_.queue_capacity));
}

bool ServiceDeployment::remove_idle_replica() {
  if (replicas_.size() <= 1) return false;
  for (auto it = replicas_.begin(); it != replicas_.end(); ++it) {
    // A crashed replica idles at load 0 but is awaiting restart, not
    // scale-down; removing it would also shift the indices fault plans
    // reference.
    if ((*it)->crashed()) continue;
    if ((*it)->load() == 0) {
      replicas_.erase(it);
      if (rr_cursor_ >= replicas_.size()) rr_cursor_ = 0;
      return true;
    }
  }
  return false;
}

std::size_t ServiceDeployment::total_concurrency() const {
  std::size_t total = 0;
  for (const auto& r : replicas_) total += r->concurrency();
  return total;
}

std::size_t ServiceDeployment::load() const {
  std::size_t total = 0;
  for (const auto& r : replicas_) total += r->load();
  return total;
}

}  // namespace l3::mesh
