// A single replica (pod) of a service: a bounded pool of concurrency slots
// fronted by a FIFO queue. A request occupies a slot for its whole residence
// (execution plus any downstream waits), so sustained load beyond capacity
// builds queueing delay — this is what produces the saturation knee the
// paper observes near 1000 RPS (§5.3.1) and gives the rate controller
// (Algorithm 2) an overload to protect against.
#pragma once

#include "l3/common/assert.h"
#include "l3/common/function.h"
#include "l3/metrics/sample_ring.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace l3::mesh {

class Replica;

/// Move-only proof that one concurrency slot is held. The job (or whatever
/// continuation it hands the token to) MUST invoke it exactly once when the
/// request has finished, successfully or not, so the slot is returned and
/// the queue pumps. Exactly-once is structural: the token cannot be copied,
/// invoking consumes it, and a second invocation of the same (now empty)
/// token trips the precondition — all without the shared heap flag the
/// std::function-based release callback needed.
class ReleaseToken {
 public:
  ReleaseToken() noexcept = default;

  ReleaseToken(ReleaseToken&& other) noexcept
      : replica_(std::exchange(other.replica_, nullptr)) {}
  ReleaseToken& operator=(ReleaseToken&& other) noexcept {
    L3_EXPECTS(replica_ == nullptr);  // overwriting would leak a slot
    replica_ = std::exchange(other.replica_, nullptr);
    return *this;
  }
  ReleaseToken(const ReleaseToken&) = delete;
  ReleaseToken& operator=(const ReleaseToken&) = delete;

  /// Releases the slot (and pumps the replica's queue). Consumes the token.
  void operator()();

  /// Whether the token still holds a slot.
  explicit operator bool() const noexcept { return replica_ != nullptr; }

 private:
  friend class Replica;
  explicit ReleaseToken(Replica* replica) noexcept : replica_(replica) {}

  Replica* replica_ = nullptr;
};

/// Work submitted to a replica. The job receives the slot's ReleaseToken
/// and must arrange for it to fire exactly once. Capacity fits the hot
/// submit closure ({deployment, pool handle}) inline.
using ReplicaJob = common::SmallFn<void(ReleaseToken), 24>;

/// One service replica with `concurrency` slots and a FIFO queue of at most
/// `queue_capacity` waiting requests. The queue is a power-of-two ring that
/// allocates nothing until a job waits and then grows by doubling from 8
/// slots, so its capacity never exceeds max(8, std::bit_ceil(queue_capacity)):
/// at mega scale almost every replica stays idle and owns no queue memory.
class Replica {
 public:
  Replica(std::size_t concurrency, std::size_t queue_capacity)
      : concurrency_(concurrency), queue_capacity_(queue_capacity) {
    L3_EXPECTS(concurrency >= 1);
  }

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Submits a job. Runs it immediately if a slot is free, queues it if the
  /// queue has room, otherwise rejects (returns false; job not run).
  bool submit(ReplicaJob job);

  /// Requests currently holding a slot.
  std::size_t active() const { return active_; }

  /// Requests waiting in the queue.
  std::size_t queued() const { return queue_.size(); }

  /// Queue slots currently allocated: zero until a job first waits and
  /// again after crash(), never above max(8, std::bit_ceil(queue_capacity))
  /// (introspection for tests).
  std::size_t queue_slots() const { return queue_.capacity(); }

  /// Total load (active + queued) — the replica-selection signal.
  std::size_t load() const { return active_ + queue_.size(); }

  std::size_t concurrency() const { return concurrency_; }

  /// Crashes the replica (fault injection): queued jobs are destroyed
  /// unrun and the queue's storage is freed, further submissions are rejected, and the queue stays unpumped
  /// until restart(). Slots held by in-flight jobs remain counted until
  /// their ReleaseTokens fire — the owner (ServiceDeployment) is
  /// responsible for failing those calls and firing their tokens exactly
  /// once. Returns the number of queued jobs discarded.
  std::size_t crash();

  /// Brings a crashed replica back into service with empty state.
  void restart() { crashed_ = false; }

  bool crashed() const { return crashed_; }

  /// Lifetime rejection count for observability and tests.
  std::uint64_t rejected() const { return rejected_; }

 private:
  friend class ReleaseToken;

  void run(ReplicaJob job);

  /// ReleaseToken's target: frees one slot and pumps the queue.
  void release_one();

  std::size_t concurrency_;
  std::size_t queue_capacity_;
  std::size_t active_ = 0;
  metrics::SampleRing<ReplicaJob> queue_;
  std::uint64_t rejected_ = 0;
  bool crashed_ = false;
};

inline void ReleaseToken::operator()() {
  L3_EXPECTS(replica_ != nullptr);  // double release / empty token
  std::exchange(replica_, nullptr)->release_one();
}

}  // namespace l3::mesh
