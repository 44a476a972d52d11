// Discrete-event simulation core. This substrate replaces the paper's EC2 /
// Kubernetes testbed: every other subsystem (mesh, metrics scraping, the L3
// control loops, workload generators) is driven by events scheduled here.
//
// The simulator is deliberately single-threaded and deterministic: events at
// equal timestamps fire in scheduling order, so a given (topology, scenario,
// seed) triple always reproduces the identical request trace (pinned by
// tests/sim_determinism_test.cpp).
//
// Hot-path design (see include/l3/sim/event.h): events are EventFns with
// inline storage for small captures, queued in an explicit 4-ary min-heap.
// Periodic tasks keep their callback in a single heap-allocated control
// block for their whole lifetime and reschedule in place — the nth firing
// lands at exactly `first + n * interval`, so co-periodic tasks (5 s control
// ticks vs 5 s scrape ticks) never drift apart over long runs.
#pragma once

#include "l3/common/assert.h"
#include "l3/common/logging.h"
#include "l3/common/time.h"
#include "l3/sim/event.h"

#include <cstdint>
#include <memory>
#include <utility>

namespace l3::sim {

namespace detail {
/// Control block of one periodic task. Allocated once per schedule_every()
/// and shared by the in-flight event and any PeriodicHandles; the callback
/// is never re-wrapped between firings.
struct PeriodicTask {
  EventFn fn;
  SimDuration interval = 0.0;
  SimTime first = 0.0;     ///< time of firing 0
  std::uint64_t fired = 0; ///< completed firings
  bool cancelled = false;
};
}  // namespace detail

/// Cancellation handle for a periodic task. Destroying the handle does NOT
/// cancel the task (handles are observers); call `cancel()` explicitly.
class PeriodicHandle {
 public:
  PeriodicHandle() = default;

  /// Stops future firings. Safe to call repeatedly or on a default handle.
  void cancel() {
    if (task_) task_->cancelled = true;
  }

  bool active() const { return task_ && !task_->cancelled; }

 private:
  friend class Simulator;
  explicit PeriodicHandle(std::shared_ptr<detail::PeriodicTask> task)
      : task_(std::move(task)) {}
  std::shared_ptr<detail::PeriodicTask> task_;
};

/// The event loop: a virtual clock plus a time-ordered queue of callbacks.
class Simulator {
 public:
  using EventFn = sim::EventFn;

  /// Construction binds this simulator's LogContext to the current thread
  /// (restored on destruction), and wires the sim clock in as its time
  /// provider. A Simulator must be constructed, run and destroyed on the
  /// same thread; concurrent Simulators on different threads are fully
  /// isolated — no shared mutable state, including logging.
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// This simulation's logging configuration (level, sink, time stamps).
  LogContext& log() { return log_context_; }

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). The callable is
  /// forwarded to the queue and built in its pool slot (EventQueue::push).
  template <EventCallable F>
  void schedule_at(SimTime t, F&& fn) {
    L3_EXPECTS(t >= now_);
    expect_callable(fn);
    // Local seqs must stay below the delivered-seq band so cross-shard
    // deliveries order after local events at equal timestamps (~5.5e11
    // locally scheduled events before this would trip).
    L3_EXPECTS(next_seq_ < kDeliveredSeqBase);
    queue_.push(t, next_seq_, std::forward<F>(fn));
    ++next_seq_;
  }

  /// Schedules `fn` after `delay` (>= 0) seconds.
  template <EventCallable F>
  void schedule_after(SimDuration delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules a cross-shard delivery at absolute time `t` (>= now) under a
  /// shard-count-invariant sequence key instead of this simulator's local
  /// counter: the event's queue seq encodes (origin cluster, origin
  /// sequence), both assigned on the ORIGIN shard, so the pop order among
  /// deliveries — and between deliveries and local events — is identical no
  /// matter how clusters are grouped onto shards or when the mailbox commit
  /// happened to run. Delivered seqs sit above every local seq
  /// (kDeliveredSeqBase), so at equal timestamps local events fire first;
  /// that too is partition-invariant. Requires `origin_cluster` < 2^8 and
  /// `origin_seq` < 2^31.
  template <EventCallable F>
  void schedule_delivered(SimTime t, std::uint32_t origin_cluster,
                          std::uint32_t origin_seq, F&& fn) {
    L3_EXPECTS(t >= now_);
    expect_callable(fn);
    L3_EXPECTS(origin_cluster < (1u << kDeliveredClusterBits));
    L3_EXPECTS(origin_seq < (1u << kDeliveredSeqBits));
    const std::uint64_t seq = kDeliveredSeqBase |
                              (static_cast<std::uint64_t>(origin_cluster)
                               << kDeliveredSeqBits) |
                              origin_seq;
    queue_.push(t, seq, std::forward<F>(fn));
  }

  /// Local seqs live strictly below this; delivered seqs at/above it.
  static constexpr std::uint64_t kDeliveredSeqBase = 1ull << 39;
  static constexpr unsigned kDeliveredClusterBits = 8;
  static constexpr unsigned kDeliveredSeqBits = 31;

  /// Schedules `fn` every `interval` seconds, first firing at
  /// `now + initial_delay`. Returns a handle to cancel the task.
  PeriodicHandle schedule_every(SimDuration interval, EventFn fn,
                                SimDuration initial_delay = 0.0);

  /// Runs events until the queue is empty or the clock would pass `end`.
  /// The clock is left at `end` (or at the last event if the queue drained).
  /// Returns the number of events processed.
  ///
  /// Events are drained in batches of up to kDispatchBatch
  /// (EventQueue::dispatch_batch): the event order is the per-event order,
  /// with one outer-loop iteration and one instrumentation record per
  /// batch. stop() still takes effect after the in-flight event.
  std::size_t run_until(SimTime end);

  /// Convenience: run_until(now() + duration).
  std::size_t run_for(SimDuration duration) { return run_until(now_ + duration); }

  /// Processes a single event, if any; returns whether one was processed.
  bool step();

  /// Requests the current run_until call to return after the in-flight
  /// event finishes.
  void stop() { stop_requested_ = true; }

  /// Number of events currently pending.
  std::size_t pending() const { return queue_.size(); }

  /// Total number of events executed since construction.
  std::uint64_t executed() const { return executed_; }

 private:
  /// Max events run_until drains per outer-loop iteration: deep enough to
  /// amortize the loop and its obs records, and no observable choice —
  /// every batch size yields the identical event order.
  static constexpr std::size_t kDispatchBatch = 64;

  void fire_periodic(const std::shared_ptr<detail::PeriodicTask>& task);
  void schedule_periodic_firing(std::shared_ptr<detail::PeriodicTask> task,
                                SimTime at);

  LogContext log_context_;
  ScopedLogBind log_bind_;
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace l3::sim
