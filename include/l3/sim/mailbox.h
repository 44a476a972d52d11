// Cross-shard mailboxes for the sharded simulator: each directed shard pair
// gets a bounded staging buffer on the sending side (flushed at conservative
// window boundaries, or early when full — the out-of-band buffer discipline
// used by deltafs-vpic's preload shuffle) feeding that pair's own
// single-producer, single-consumer lane. A batch changes hands by swapping
// vectors, never by moving its messages one by one.
//
// Determinism does NOT depend on flush or drain timing: every message
// carries a shard-count-invariant (origin cluster, origin sequence) key,
// assigned on the origin shard, and the receiving Simulator orders
// deliveries by that key (Simulator::schedule_delivered). Flushes only
// affect WHEN a message becomes visible, never where it sorts.
#pragma once

#include "l3/common/assert.h"
#include "l3/common/time.h"
#include "l3/sim/event.h"

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace l3::sim {

/// One cross-shard delivery: run `fn` on the owning shard's simulator at
/// `time`, ordered by the (origin_cluster, origin_seq) key.
struct ShardMessage {
  SimTime time = 0.0;
  std::uint32_t origin_cluster = 0;
  std::uint32_t origin_seq = 0;
  EventFn fn;
};

/// Flush/traffic counters for one staging buffer (or a sum over several).
struct MailboxStats {
  std::uint64_t messages = 0;         ///< messages posted
  std::uint64_t flushes = 0;          ///< non-empty flushes delivered
  std::uint64_t capacity_flushes = 0; ///< flushes forced by a full buffer

  MailboxStats& operator+=(const MailboxStats& o) {
    messages += o.messages;
    flushes += o.flushes;
    capacity_flushes += o.capacity_flushes;
    return *this;
  }
};

/// One directed shard pair's hand-off (s -> t): shard s's staging buffer
/// delivers into it, shard t drains it, and nobody else touches it. deliver()
/// and drain() are the only cross-thread touch points in the engine's data
/// path, and the mutex is the data's happens-before edge: the barrier's
/// release/acquire horizon exchange (flush-before-publish on the sender,
/// acquire-then-drain on the receiver) orders a flush's critical section
/// before the drain that must see it.
///
/// The sender's staging vector, the lane's pending vector and the
/// receiver's drain buffer trade places on every hand-off and keep their
/// capacity, so a steady-state run allocates nothing here. The alignment
/// keeps each lane's mutex off its neighbours' cache lines.
class alignas(64) MailboxLane {
 public:
  /// Hands a whole staged batch over (sender side). When the receiver has
  /// drained everything delivered before, the batch is swapped in whole;
  /// otherwise it is appended behind the undrained messages. `batch` is
  /// left empty, ready for reuse.
  void deliver(std::vector<ShardMessage>& batch) {
    if (batch.empty()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) {
        pending_.swap(batch);
      } else {
        pending_.insert(pending_.end(), std::make_move_iterator(batch.begin()),
                        std::make_move_iterator(batch.end()));
      }
    }
    batch.clear();
  }

  /// Swaps everything delivered so far, in delivery order, into `out`
  /// (receiver side), which must arrive empty; the lane takes `out`'s old
  /// vector in exchange. Returns the number of messages drained.
  std::size_t drain(std::vector<ShardMessage>& out) {
    L3_EXPECTS(out.empty());
    const std::lock_guard<std::mutex> lock(mu_);
    out.swap(pending_);
    return out.size();
  }

 private:
  std::mutex mu_;
  std::vector<ShardMessage> pending_;
};

/// Sending side: per (source shard, target shard) bounded buffer. Owned and
/// touched by the source shard's thread only; the pair's lane is the sole
/// cross-thread boundary.
class MailboxStaging {
 public:
  MailboxStaging() = default;

  void bind(MailboxLane* lane, std::size_t capacity) {
    L3_EXPECTS(lane != nullptr && capacity >= 1);
    lane_ = lane;
    capacity_ = capacity;
    buf_.reserve(capacity);
  }

  /// Stages one message; flushes to the lane first if the buffer is full.
  void post(ShardMessage msg) {
    L3_EXPECTS(lane_ != nullptr);
    if (buf_.size() >= capacity_) {
      ++stats_.capacity_flushes;
      flush();
    }
    buf_.push_back(std::move(msg));
    ++stats_.messages;
  }

  /// Delivers everything staged to the lane (no-op when empty). Called at
  /// every conservative window boundary, BEFORE the horizon is published.
  void flush() {
    if (buf_.empty()) return;
    lane_->deliver(buf_);
    ++stats_.flushes;
  }

  bool empty() const { return buf_.empty(); }
  const MailboxStats& stats() const { return stats_; }

 private:
  MailboxLane* lane_ = nullptr;
  std::size_t capacity_ = 1;
  std::vector<ShardMessage> buf_;
  MailboxStats stats_;
};

}  // namespace l3::sim
