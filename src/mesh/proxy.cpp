#include "l3/mesh/proxy.h"

#include "l3/common/assert.h"
#include "l3/mesh/mesh.h"
#include "l3/mesh/metric_names.h"
#include "l3/obs/recorder.h"
#include "l3/sim/shard_engine.h"
#include "l3/trace/tracer.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace l3::mesh {

Proxy::Proxy(sim::Simulator& sim, const WanModel& wan, ClusterId source,
             TrafficSplit& split, std::vector<ServiceDeployment*> deployments,
             metrics::Registry& registry, const HealthChecker* health,
             SplitRng rng, ProxyConfig config,
             const std::vector<std::string>& cluster_names)
    : sim_(sim),
      wan_(wan),
      source_(source),
      src_name_(cluster_names.at(source)),
      proxy_span_name_("proxy:" + split.service()),
      split_(split),
      health_(health),
      rng_(rng),
      config_(config),
      outlier_(deployments.size(), config.outlier) {
  L3_EXPECTS(deployments.size() == split.backend_count());
  // The availability cache is a 64-bit mask; far above any realistic
  // per-service cluster count (the paper runs 3).
  L3_EXPECTS(deployments.size() <= 64);
  L3_EXPECTS(source < cluster_names.size());
  backends_.reserve(deployments.size());
  p2c_scratch_.reserve(deployments.size());
  const std::string& src_name = cluster_names[source];
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    ServiceDeployment* d = deployments[i];
    L3_EXPECTS(d != nullptr);
    L3_EXPECTS(d->cluster() < cluster_names.size());
    const std::string& dst_name = cluster_names[d->cluster()];
    const auto labels =
        metric_names::backend_labels(split.service(), src_name, dst_name);
    BackendSlot slot{
        d,
        dst_name,
        "wan:" + src_name + "->" + dst_name,
        "wan:" + dst_name + "->" + src_name,
        &registry.counter(metric_names::kRequestTotal, labels),
        &registry.counter(metric_names::kSuccessTotal, labels),
        &registry.counter(metric_names::kFailureTotal, labels),
        &registry.histogram(metric_names::kLatencySuccess, labels),
        &registry.histogram(metric_names::kLatencyFailure, labels),
        &registry.counter(metric_names::kLatencySuccessSum, labels),
        &registry.counter(metric_names::kLatencyFailureSum, labels),
        &registry.gauge(metric_names::kInflight, labels),
        // kPeakEwmaP2C's client-side score: 5 ms initial, 5 s half-life.
        metrics::Ewma(0.005, 5.0, sim.now(), metrics::FilterKind::kPeakEwma),
        0,
    };
    backends_.push_back(std::move(slot));
  }
  if (config_.cost.enabled()) {
    cost_enabled_ = true;
    cpu_stage_.configure(config_.cost.concurrency);
    pools_.resize(backends_.size());
    // Audit families (per-proxy, {split, src}): registered only here so a
    // zero-cost run's registry — and everything scraped from it — stays
    // byte-identical to a build without the model.
    const auto audit_labels =
        metric_names::proxy_labels(split.service(), src_name);
    audit_handshakes_ =
        &registry.counter(metric_names::kHandshakeTotal, audit_labels);
    audit_pool_hits_ =
        &registry.counter(metric_names::kPoolHitTotal, audit_labels);
    audit_conn_closed_ =
        &registry.counter(metric_names::kConnCloseTotal, audit_labels);
  }
}

SimDuration Proxy::admit_cost(std::size_t idx) {
  L3_OBS_SCOPE_SAMPLED(obs_cost, kProxyCost);
  const SimTime now = sim_.now();
  const EdgeConnectionPool::Checkout checkout = pools_[idx].checkout(now);
  SimDuration service = config_.cost.cpu_per_request;
  if (checkout.handshake) {
    service += config_.cost.handshake_cost;
    ++cost_stats_.handshakes;
    audit_handshakes_->increment();
    L3_OBS_COUNT(kMeshHandshakes, 1);
    L3_OBS_EVENT(kMesh, kHandshake, now, static_cast<std::uint32_t>(idx),
                 config_.cost.handshake_cost);
  } else {
    ++cost_stats_.pool_hits;
    audit_pool_hits_->increment();
    L3_OBS_COUNT(kMeshPoolHits, 1);
  }
  if (checkout.expired > 0) {
    cost_stats_.expired += checkout.expired;
    L3_OBS_COUNT(kMeshConnExpired, checkout.expired);
  }
  const SimTime done_at = cpu_stage_.admit(now, service);
  const SimDuration wait = done_at - now - service;
  cost_stats_.cpu_busy_total += service;
  if (wait > 0.0) {
    ++cost_stats_.queued;
    cost_stats_.queue_delay_total += wait;
    if (wait > cost_stats_.queue_delay_max) cost_stats_.queue_delay_max = wait;
    // Saturation signal: sampled on the queueing path only, so an idle
    // proxy records nothing.
    L3_OBS_GAUGE(kMeshProxyQueueDelay, wait);
  }
  return done_at - now;
}

void Proxy::refresh_availability() {
  const SimTime now = sim_.now();
  const std::uint64_t health_version =
      health_ == nullptr ? 0 : health_->version();
  const std::uint64_t outlier_version = outlier_.version();
  if (avail_valid_ && health_version == health_version_seen_ &&
      outlier_version == outlier_version_seen_ && now < avail_valid_until_) {
    return;
  }
  const std::size_t n = backends_.size();
  const bool check_partitions = wan_.has_partitions();
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool healthy =
        health_ == nullptr || health_->is_available(*backends_[i].deployment);
    const bool reachable =
        !check_partitions ||
        !wan_.is_partitioned(source_, backends_[i].deployment->cluster(), now);
    if (healthy && reachable && !outlier_.is_ejected(i, now)) {
      mask |= 1ull << i;
    }
  }
  if (mask == 0) {
    // Nothing available: fall back to trying everything so requests fail at
    // the backend rather than vanish.
    mask = n == 64 ? ~0ull : (1ull << n) - 1;
  }
  avail_mask_ = mask;
  // Slow path only (version change / cache expiry), so the flight-recorder
  // entry and inflight gauge cost nothing per request.
  L3_OBS_EVENT(kMesh, kAvailabilityRefresh, now,
               static_cast<std::uint32_t>(mask),
               static_cast<double>(std::popcount(mask)));
  L3_OBS_GAUGE(kMeshInflight, static_cast<double>(inflight_total_));
  health_version_seen_ = health_version;
  outlier_version_seen_ = outlier_version;
  avail_valid_until_ = outlier_.next_transition(now);
  if (check_partitions) {
    avail_valid_until_ =
        std::min(avail_valid_until_, wan_.next_partition_transition(now));
  }
  avail_valid_ = true;
}

void Proxy::refresh_picker() {
  if (picker_valid_ && split_.generation() == picker_generation_ &&
      avail_mask_ == picker_mask_) {
    return;
  }
  L3_OBS_SCOPE(obs_rebuild, kPickerRebuild);
  const auto backends = split_.backends();
  cum_weights_.clear();
  cum_index_.clear();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if ((avail_mask_ >> i & 1) == 0) continue;
    total += backends[i].weight;
    cum_weights_.push_back(total);
    cum_index_.push_back(static_cast<std::uint32_t>(i));
  }
  cum_total_ = total;
  picker_generation_ = split_.generation();
  picker_mask_ = avail_mask_;
  picker_valid_ = true;
  L3_OBS_EVENT(kMesh, kPickerRebuild, sim_.now(),
               static_cast<std::uint32_t>(avail_mask_),
               static_cast<double>(cum_index_.size()));
}

std::size_t Proxy::pick_weighted() {
  L3_OBS_SCOPE_SAMPLED(obs_pick, kWeightedPick);
  const std::size_t count = cum_index_.size();
  L3_ASSERT(count > 0);
  if (cum_total_ == 0) {
    // All available weights are zero: ignore weights among the available
    // set (uniform pick). uniform() < 1 keeps the index below count; the
    // clamp guards the floating-point edge so it can never reach count.
    auto nth = static_cast<std::size_t>(rng_.uniform() *
                                        static_cast<double>(count));
    if (nth >= count) nth = count - 1;
    return cum_index_[nth];
  }
  auto r = static_cast<std::uint64_t>(rng_.uniform() *
                                      static_cast<double>(cum_total_));
  if (r >= cum_total_) r = cum_total_ - 1;  // fp edge: clamp into the table
  // First entry whose cumulative weight exceeds r. Zero-weight backends
  // repeat the previous cumulative value and are skipped. The table covers
  // available backends only, so the result is always one of them (the old
  // open-coded walk could fall back to an unavailable last backend).
  return cum_index_[pick::search(cum_weights_.data(), count, r)];
}

double Proxy::p2c_cost(const BackendSlot& slot) const {
  return slot.p2c_latency.value() *
         static_cast<double>(slot.outstanding + 1);
}

std::size_t Proxy::pick_p2c() {
  L3_OBS_SCOPE_SAMPLED(obs_pick, kP2cPick);
  // The candidate set is a pure function of the availability mask, so it is
  // rebuilt only when the mask changes instead of on every pick (the
  // rebuild loop used to be the P2C hot path's dominant cost). A live mask
  // is never 0 (all-true fallback), so 0 doubles as "never built".
  if (avail_mask_ != p2c_mask_) {
    p2c_scratch_.clear();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (avail_mask_ >> i & 1) {
        p2c_scratch_.push_back(static_cast<std::uint32_t>(i));
      }
    }
    p2c_mask_ = avail_mask_;
  }
  const std::vector<std::uint32_t>& candidates = p2c_scratch_;
  L3_ASSERT(!candidates.empty());
  if (candidates.size() == 1) return candidates.front();
  const double n = static_cast<double>(candidates.size());
  auto first = static_cast<std::size_t>(rng_.uniform() * n);
  if (first >= candidates.size()) first = candidates.size() - 1;
  const std::uint32_t a = candidates[first];
  std::uint32_t b = a;
  while (b == a) {
    auto second = static_cast<std::size_t>(rng_.uniform() * n);
    if (second >= candidates.size()) second = candidates.size() - 1;
    b = candidates[second];
  }
  return p2c_cost(backends_[a]) <= p2c_cost(backends_[b]) ? a : b;
}

std::size_t Proxy::pick() {
  refresh_availability();
  if (config_.routing == RoutingMode::kPeakEwmaP2C) return pick_p2c();
  refresh_picker();
  return pick_weighted();
}

void Proxy::send(int depth, trace::SpanContext parent, ResponseFn done) {
  L3_EXPECTS(done != nullptr);
  constexpr int kMaxDepth = 32;  // guards against call-graph cycles
  if (depth > kMaxDepth) {
    done(Response{.success = false, .latency = 0.0, .backend_cluster = source_,
                  .timed_out = false});
    return;
  }
  const std::size_t idx = pick();
  BackendSlot& slot = backends_[idx];
  ++sent_;
  L3_OBS_COUNT(kMeshRequests, 1);
  slot.requests->increment();
  slot.inflight->add(1.0);
  slot.outstanding += 1;
  ++inflight_total_;

  const bool with_timeout = config_.timeout > 0.0;
  const CallHandle handle = calls_.acquire();
  CallState& state = *calls_.get(handle);
  state.start = sim_.now();
  state.backend = static_cast<std::uint32_t>(idx);
  // Visitors that must settle before the slot recycles: the response chain,
  // plus the timeout event when one is armed.
  state.pending = with_timeout ? 2 : 1;
  state.finished = false;
  state.span = trace::SpanContext{};
  state.done = std::move(done);
  if (tracer_ != nullptr && parent.sampled()) {
    state.span = tracer_->start_span(parent, trace::SpanKind::kProxy,
                                     proxy_span_name_, src_name_,
                                     split_.service());
  }

  if (with_timeout) {
    const SimTime deadline = sim_.now() + config_.timeout;
    timeouts_.push_back(TimeoutEntry{deadline, handle});
    if (!timeout_timer_armed_) arm_timeout_timer(deadline);
  }

  // The cost model's delay (connection handshake + CPU-stage queueing +
  // service) rides the outbound leg: the request leaves the proxy only once
  // its sidecar work is done. No extra event, no RNG draw — with the model
  // disabled cost_delay is exactly 0.0 and every event time below is
  // bit-identical to a build without it.
  const SimDuration cost_delay = cost_enabled_ ? admit_cost(idx) : 0.0;
  const SimDuration outbound =
      wan_.sample(source_, slot.deployment->cluster(), sim_.now(), rng_);
  if (presampled_) {
    send_presampled(handle, depth, slot, cost_delay + outbound);
    return;
  }
  if (state.span.sampled()) {
    tracer_->add_span(state.span, trace::SpanKind::kWan, slot.wan_out_name,
                      src_name_, split_.service(), sim_.now() + cost_delay,
                      sim_.now() + cost_delay + outbound);
  }
  sim_.schedule_after(cost_delay + outbound, [this, handle, depth] {
    CallState* st = calls_.get(handle);
    L3_ASSERT(st != nullptr);  // the response chain holds the slot
    BackendSlot& s = backends_[st->backend];
    if (wan_.has_partitions() &&
        wan_.is_partitioned(source_, s.deployment->cluster(), sim_.now())) {
      // The link died while the request was in transit (or the partitioned
      // backend was the all-unavailable fallback): the request is dropped
      // on the floor and the connection resets — a fast failure, not a
      // full client-timeout wait.
      on_response(handle, Outcome{.success = false, .rejected = true});
      return;
    }
    s.deployment->handle(
        depth + 1, st->span, [this, handle](const Outcome& outcome) {
          CallState* st2 = calls_.get(handle);
          L3_ASSERT(st2 != nullptr);
          const BackendSlot& s2 = backends_[st2->backend];
          // Sampled even when a timeout already answered the caller: the
          // draw sequence of the proxy's RNG stream must not depend on
          // response/timeout ordering (determinism contract).
          const SimDuration inbound =
              wan_.sample(s2.deployment->cluster(), source_, sim_.now(), rng_);
          if (st2->span.sampled()) {
            tracer_->add_span(st2->span, trace::SpanKind::kWan,
                              s2.wan_in_name, src_name_, split_.service(),
                              sim_.now(), sim_.now() + inbound);
          }
          // A partition racing the response direction loses the response:
          // the backend did the work but the client sees a failure.
          Outcome delivered = outcome;
          if (wan_.has_partitions() &&
              wan_.is_partitioned(s2.deployment->cluster(), source_,
                                  sim_.now())) {
            delivered = Outcome{.success = false, .rejected = false};
          }
          sim_.schedule_after(inbound, [this, handle, delivered] {
            on_response(handle, delivered);
          });
        });
  });
}

void Proxy::enable_presampled(sim::ShardRouter* router) {
  L3_EXPECTS(router != nullptr);
  // The dest-side leg executes on another shard, where this proxy's tracer
  // and RNG must never be touched; tracing is therefore incompatible, and
  // the discipline must be fixed before traffic flows.
  L3_EXPECTS(tracer_ == nullptr);
  L3_EXPECTS(sent_ == 0);
  router_ = router;
  presampled_ = true;
}

void Proxy::send_presampled(CallHandle handle, int depth, BackendSlot& slot,
                            SimDuration outbound) {
  ServiceDeployment* const dep = slot.deployment;
  const ClusterId dst = dep->cluster();
  // Both transit legs are drawn here, source-side, back to back — the dest
  // shard's streams are never touched, so the proxy's draw sequence (and
  // with it every downstream result) is invariant to how clusters map onto
  // shards. This differs from the legacy discipline, which draws the
  // return leg dest-side at completion time; presampled runs have their
  // own goldens.
  const SimDuration inbound = wan_.sample(dst, source_, sim_.now(), rng_);
  const SimTime arrive = sim_.now() + outbound;
  if (wan_.has_partitions() && wan_.is_partitioned(source_, dst, arrive)) {
    // Same fast-failure semantics as the legacy arrival-time check:
    // partitions are registered up front, so the verdict at `arrive` is
    // already computable here on the source shard.
    sim_.schedule_after(outbound, [this, handle] {
      on_response(handle, Outcome{.success = false, .rejected = true});
    });
    return;
  }
  // Posted under the (source cluster, seq) key; runs at `arrive` on the
  // shard owning `dst`. From there until the response lands back home only
  // `dep`, the shared engine and this proxy's immutable fields may be
  // touched.
  router_->post(source_, dst, arrive, [this, dep, handle, depth, inbound] {
    dep->handle(
        depth + 1, [this, dep, handle, inbound](const Outcome& outcome) {
          sim::Simulator& dest_sim = dep->sim();
          const ClusterId dest = dep->cluster();
          Outcome delivered = outcome;
          // The dest shard's WAN copy is configured identically to the
          // source's, so the return-partition verdict matches what the
          // legacy dest-side check would conclude.
          const WanModel& dest_wan = dep->mesh().wan();
          if (dest_wan.has_partitions() &&
              dest_wan.is_partitioned(dest, source_, dest_sim.now())) {
            delivered = Outcome{.success = false, .rejected = false};
          }
          router_->engine().router_for_cluster(dest).post(
              dest, source_, dest_sim.now() + inbound,
              [this, handle, delivered] { on_response(handle, delivered); });
        });
  });
}

void Proxy::on_response(CallHandle handle, const Outcome& outcome) {
  CallState* state = calls_.get(handle);
  L3_ASSERT(state != nullptr);  // the chain's visitor still holds the slot
  if (!state->finished) {
    finish(*state, outcome.success, sim_.now() - state->start, false);
  }
  settle(handle, *state);
  drain_finished_timeouts();
}

void Proxy::arm_timeout_timer(SimTime deadline) {
  timeout_timer_armed_ = true;
  sim_.schedule_at(deadline, [this] { on_timeout_timer(); });
}

void Proxy::drain_finished_timeouts() {
  while (!timeouts_.empty()) {
    const CallHandle handle = timeouts_.front().handle;
    CallState* state = calls_.get(handle);
    if (state != nullptr) {
      if (!state->finished || state->pending != 1) break;  // still in flight
      settle(handle, *state);
    }
    timeouts_.pop_front();
  }
}

void Proxy::on_timeout_timer() {
  L3_OBS_SCOPE(obs_sweep, kTimeoutSweep);
  timeout_timer_armed_ = false;
  const SimTime now = sim_.now();
  while (!timeouts_.empty()) {
    // By value: finish() can re-enter send(), which may grow the ring.
    const TimeoutEntry front = timeouts_.front();
    CallState* state = calls_.get(front.handle);
    if (state == nullptr) {  // already recycled; nothing to settle
      timeouts_.pop_front();
      continue;
    }
    if (state->finished && state->pending == 1) {
      // Response already answered the caller; the ring entry was the last
      // visitor, so this settle recycles the slot.
      settle(front.handle, *state);
      timeouts_.pop_front();
      continue;
    }
    if (front.deadline > now) break;
    // Genuinely due: the caller gets the timeout response at exactly
    // start + timeout. The response chain (still in flight) keeps its
    // visitor and settles the slot when it lands.
    if (!state->finished) {
      L3_OBS_COUNT(kMeshTimeouts, 1);
      L3_OBS_EVENT(kMesh, kTimeoutFired, now, state->backend,
                   config_.timeout);
      finish(*state, false, config_.timeout, true);
    }
    settle(front.handle, *state);
    timeouts_.pop_front();
  }
  if (!timeouts_.empty()) arm_timeout_timer(timeouts_.front().deadline);
}

void Proxy::settle(CallHandle handle, CallState& state) {
  L3_ASSERT(state.pending > 0);
  if (--state.pending == 0) calls_.release(handle);
}

void Proxy::finish(CallState& state, bool success, SimDuration latency,
                   bool timed_out) {
  state.finished = true;
  if (cost_enabled_) {
    // Exactly once per call (finish is guarded by state.finished): a client
    // timeout tears the connection down mid-flight (churn); otherwise it
    // parks in the edge pool unless the idle list is already full.
    if (pools_[state.backend].release(sim_.now(), timed_out, config_.cost)) {
      ++cost_stats_.closed;
      audit_conn_closed_->increment();
    }
  }
  BackendSlot& slot = backends_[state.backend];
  slot.inflight->add(-1.0);
  L3_ASSERT(slot.outstanding > 0);
  slot.outstanding -= 1;
  L3_ASSERT(inflight_total_ > 0);
  --inflight_total_;
  if (success) {
    slot.success->increment();
    slot.latency_success->record(latency);
    slot.latency_success_sum->add(latency);
  } else {
    slot.failure->increment();
    slot.latency_failure->record(latency);
    slot.latency_failure_sum->add(latency);
  }
  if (config_.routing == RoutingMode::kPeakEwmaP2C) {
    // The PeakEWMA is only ever read by pick_p2c(); skipping the update in
    // weighted mode saves an exp() per response on the hot path.
    slot.p2c_latency.observe(latency, sim_.now());
  }
  outlier_.record(state.backend, success, sim_.now());
  if (state.span.sampled()) {
    tracer_->end_span(state.span,
                      timed_out ? trace::SpanStatus::kTimeout
                                : (success ? trace::SpanStatus::kOk
                                           : trace::SpanStatus::kError));
  }
  Response response;
  response.success = success;
  response.latency = latency;
  response.backend_cluster = slot.deployment->cluster();
  response.timed_out = timed_out;
  // Moved out before invoking: the callback may re-enter send() and touch
  // the pool; the slot itself stays put (chunked storage) until settled.
  ResponseFn done = std::move(state.done);
  done(response);
}

}  // namespace l3::mesh
