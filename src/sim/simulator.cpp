#include "l3/sim/simulator.h"

#include "l3/obs/recorder.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace l3::sim {

Simulator::Simulator() : log_bind_(log_context_) {
  log_context_.set_time_provider([this] { return now_; });
}

void Simulator::schedule_at(SimTime t, EventFn fn) {
  L3_EXPECTS(t >= now_);
  L3_EXPECTS(static_cast<bool>(fn));
  // Local seqs must stay below the delivered-seq band so cross-shard
  // deliveries order after local events at equal timestamps (~5.5e11
  // locally scheduled events before this would trip).
  L3_EXPECTS(next_seq_ < kDeliveredSeqBase);
  queue_.push(t, next_seq_++, std::move(fn));
}

void Simulator::schedule_delivered(SimTime t, std::uint32_t origin_cluster,
                                   std::uint32_t origin_seq, EventFn fn) {
  L3_EXPECTS(t >= now_);
  L3_EXPECTS(static_cast<bool>(fn));
  L3_EXPECTS(origin_cluster < (1u << kDeliveredClusterBits));
  L3_EXPECTS(origin_seq < (1u << kDeliveredSeqBits));
  const std::uint64_t seq = kDeliveredSeqBase |
                            (static_cast<std::uint64_t>(origin_cluster)
                             << kDeliveredSeqBits) |
                            origin_seq;
  queue_.push(t, seq, std::move(fn));
}

PeriodicHandle Simulator::schedule_every(SimDuration interval, EventFn fn,
                                         SimDuration initial_delay) {
  L3_EXPECTS(interval > 0.0);
  L3_EXPECTS(initial_delay >= 0.0);
  auto task = std::make_shared<detail::PeriodicTask>();
  task->fn = std::move(fn);
  task->interval = interval;
  task->first = now_ + initial_delay;
  PeriodicHandle handle(task);
  schedule_periodic_firing(std::move(task), handle.task_->first);
  return handle;
}

void Simulator::schedule_periodic_firing(
    std::shared_ptr<detail::PeriodicTask> task, SimTime at) {
  // The event captures only the shared control block (16 bytes + `this`),
  // so every firing of every periodic task stays within EventFn's inline
  // buffer regardless of what the user callback captured.
  schedule_at(at, [this, task = std::move(task)] { fire_periodic(task); });
}

void Simulator::fire_periodic(
    const std::shared_ptr<detail::PeriodicTask>& task) {
  if (task->cancelled) {
    // Release the user callback (and whatever it captured) as soon as the
    // cancellation is observed; outstanding handles only read the flag.
    task->fn.reset();
    return;
  }
  task->fn();
  if (task->cancelled) {
    task->fn.reset();
    return;
  }
  ++task->fired;
  // Drift-free: the nth firing is first + n*interval, NOT an accumulated
  // `time += interval` (which lets rounding error build up and 5 s control
  // ticks float away from 5 s scrape ticks over 20-minute runs). The
  // max() guards the pathological case where n*interval rounds below now.
  const SimTime next =
      task->first + static_cast<double>(task->fired) * task->interval;
  schedule_periodic_firing(task, std::max(next, now_));
}

std::size_t Simulator::run_until(SimTime end) {
  L3_EXPECTS(end >= now_);
  stop_requested_ = false;
  std::size_t processed = 0;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.min_time() > end) break;
    std::size_t batch = 0;
    {
      L3_OBS_SCOPE_SAMPLED(obs_dispatch, kSimDispatch);
      // Drain a batch with each callable invoked in place; the queue's
      // chunked slot pool keeps slots stable across re-entrant scheduling,
      // so no move-out is needed. Order is identical to the per-event loop;
      // the empty/min_time probes and obs records amortize over the batch.
      batch = queue_.dispatch_batch(
          end, kDispatchBatch, [this](SimTime t, EventFn& fn) {
            now_ = t;
            fn();
            return !stop_requested_;
          });
    }
    processed += batch;
    executed_ += batch;
    L3_OBS_COUNT(kSimEvents, batch);
    L3_OBS_BATCH(batch);
    // Queue-depth gauge once per batch: cheap enough to leave on, detailed
    // enough to draw a useful counter track.
    L3_OBS_GAUGE(kSimPendingEvents, static_cast<double>(queue_.size()));
  }
  if (now_ < end) now_ = end;
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  {
    L3_OBS_SCOPE_SAMPLED(obs_dispatch, kSimDispatch);
    queue_.dispatch_batch(std::numeric_limits<SimTime>::infinity(), 1,
                          [this](SimTime t, EventFn& fn) {
                            now_ = t;
                            fn();
                            return true;
                          });
  }
  ++executed_;
  L3_OBS_COUNT(kSimEvents, 1);
  return true;
}

}  // namespace l3::sim
