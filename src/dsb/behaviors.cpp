#include "l3/dsb/behaviors.h"

#include "l3/common/assert.h"
#include "l3/mesh/mesh.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace l3::dsb {

DsbBehavior::Plan::Plan(std::vector<Stage> stage_list)
    : stages(std::move(stage_list)) {
  targets.reserve(stages.size());
  for (const Stage& stage : stages) targets.emplace_back(stage.size());
}

DsbBehavior::DsbBehavior(const ServiceProfile& profile,
                         const ClusterLoadModel& load, double success_rate)
    : load_(load),
      median_(profile.median),
      tail_level_(std::max(profile.p99, profile.median)),
      sensitivity_(profile.load_sensitivity),
      success_rate_(success_rate) {
  L3_EXPECTS(profile.median > 0.0);
  L3_EXPECTS(success_rate >= 0.0 && success_rate <= 1.0);
}

void DsbBehavior::bind(const mesh::BehaviorContext& ctx) {
  if (mesh_ == nullptr) {
    sim_ = &ctx.sim;
    mesh_ = &ctx.mesh;
    cluster_ = ctx.cluster;
    rng_ = &ctx.rng;
  }
  // The cached targets and load scales are only valid for one deployment.
  L3_ASSERT(sim_ == &ctx.sim && mesh_ == &ctx.mesh &&
            cluster_ == ctx.cluster && rng_ == &ctx.rng);
}

SimDuration DsbBehavior::sample_exec() {
  const auto& factors = load_.factors(cluster_);
  if (factors.median != cached_factors_.median ||
      factors.tail != cached_factors_.tail) {
    cached_factors_ = factors;
    median_scale_ = std::pow(factors.median, sensitivity_);
    tail_scale_ = std::pow(factors.tail, sensitivity_);
  }
  if (rng_->bernoulli(kTailWeight)) {
    return tail_level_ * tail_scale_ * rng_->lognormal(0.0, kComponentSigma);
  }
  return median_ * median_scale_ * rng_->lognormal(0.0, kComponentSigma);
}

bool DsbBehavior::sample_success(const mesh::BehaviorContext& ctx) const {
  return ctx.rng.bernoulli(success_rate_);
}

void DsbBehavior::start(const mesh::BehaviorContext& ctx, Plan& plan, bool ok,
                        mesh::OutcomeFn done) {
  bind(ctx);
  const SimDuration exec = sample_exec();
  const FrameHandle handle = frames_.acquire();
  Frame& frame = *frames_.get(handle);
  frame.done = std::move(done);
  frame.trace = ctx.trace;
  frame.depth = ctx.depth;
  frame.plan = &plan;
  frame.stage = 0;
  frame.remaining = 0;
  frame.ok = ok;
  auto run = [this, handle] { run_stage(handle); };
  static_assert(sim::EventFn::fits_inline<decltype(run)>());
  sim_->schedule_after(exec, std::move(run));
}

void DsbBehavior::run_stage(FrameHandle handle) {
  Frame* frame = frames_.get(handle);
  L3_ASSERT(frame != nullptr);  // held until the last stage completes
  const std::vector<Stage>& stages = frame->plan->stages;
  while (frame->stage < stages.size() && stages[frame->stage].empty()) {
    ++frame->stage;
  }
  if (frame->stage == stages.size()) {
    mesh::OutcomeFn done = std::move(frame->done);
    const bool ok = frame->ok;
    frames_.release(handle);
    done(mesh::Outcome{ok});
    return;
  }
  const std::size_t calls = stages[frame->stage].size();
  frame->remaining = static_cast<std::uint32_t>(calls);
  // The frame outlives every issue but the last: it is released only after
  // all `calls` completions, and a synchronous completion of the last call
  // may advance (and finish) the frame before send_call returns.
  for (std::size_t i = 0; i < calls; ++i) send_call(handle, i);
}

void DsbBehavior::send_call(FrameHandle handle, std::size_t index) {
  Frame* frame = frames_.get(handle);
  L3_ASSERT(frame != nullptr);
  const Call& call = frame->plan->stages[frame->stage][index];
  Plan::Target& target = frame->plan->targets[frame->stage][index];
  if (call.probability < 1.0 && !rng_->bernoulli(call.probability)) {
    call_done(handle, true);  // gated off: counts as trivially successful
    return;
  }
  if (!call.local) {
    if (target.proxy == nullptr) {
      target.proxy = &mesh_->proxy(cluster_, call.service);
    }
    auto on_response = [this, handle](const mesh::Response& response) {
      call_done(handle, response.success);
    };
    static_assert(mesh::ResponseFn::fits_inline<decltype(on_response)>());
    target.proxy->send(frame->depth, frame->trace, std::move(on_response));
    return;
  }
  // Cluster-local dependency: a local network hop to the co-located
  // deployment, no TrafficSplit involved. The trace context still
  // propagates so fan-out spans attach under the calling server span.
  if (target.deployment == nullptr) {
    target.deployment = mesh_->find_deployment(call.service, cluster_);
    L3_ASSERT(target.deployment != nullptr);
  }
  const SimDuration out =
      mesh_->wan().sample(cluster_, cluster_, sim_->now(), *rng_);
  auto arrive = [this, handle, deployment = target.deployment] {
    const Frame* f = frames_.get(handle);
    L3_ASSERT(f != nullptr);
    auto on_outcome = [this, handle](const mesh::Outcome& outcome) {
      const SimDuration back =
          mesh_->wan().sample(cluster_, cluster_, sim_->now(), *rng_);
      auto reply = [this, handle, ok = outcome.success] {
        call_done(handle, ok);
      };
      static_assert(sim::EventFn::fits_inline<decltype(reply)>());
      sim_->schedule_after(back, std::move(reply));
    };
    static_assert(mesh::OutcomeFn::fits_inline<decltype(on_outcome)>());
    deployment->handle(f->depth + 1, f->trace, std::move(on_outcome));
  };
  static_assert(sim::EventFn::fits_inline<decltype(arrive)>());
  sim_->schedule_after(out, std::move(arrive));
}

void DsbBehavior::call_done(FrameHandle handle, bool ok) {
  Frame* frame = frames_.get(handle);
  L3_ASSERT(frame != nullptr);
  if (!ok) frame->ok = false;
  if (--frame->remaining == 0) {
    ++frame->stage;
    run_stage(handle);
  }
}

StagedBehavior::StagedBehavior(const ServiceProfile& profile,
                               const ClusterLoadModel& load,
                               double success_rate, std::vector<Stage> stages)
    : DsbBehavior(profile, load, success_rate), plan_(std::move(stages)) {}

void StagedBehavior::invoke(const mesh::BehaviorContext& ctx,
                            mesh::OutcomeFn done) {
  const bool ok = sample_success(ctx);
  start(ctx, plan_, ok, std::move(done));
}

MixBehavior::MixBehavior(const ServiceProfile& profile,
                         const ClusterLoadModel& load, double success_rate,
                         std::vector<Operation> operations)
    : DsbBehavior(profile, load, success_rate) {
  L3_EXPECTS(!operations.empty());
  double total = 0.0;
  for (const auto& op : operations) {
    L3_EXPECTS(op.weight > 0.0);
    total += op.weight;
  }
  double running = 0.0;
  plans_.reserve(operations.size());
  for (auto& op : operations) {
    running += op.weight / total;
    cumulative_.push_back(running);
    plans_.emplace_back(std::move(op.stages));
  }
}

void MixBehavior::invoke(const mesh::BehaviorContext& ctx,
                         mesh::OutcomeFn done) {
  const double draw = ctx.rng.uniform();
  std::size_t op = plans_.size() - 1;
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (draw < cumulative_[i]) {
      op = i;
      break;
    }
  }
  const bool ok = sample_success(ctx);
  start(ctx, plans_[op], ok, std::move(done));
}

}  // namespace l3::dsb
