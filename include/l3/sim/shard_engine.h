// Conservative-lookahead parallel DES harness: N shards, each running its
// own single-threaded Simulator over a group of clusters, synchronized by a
// Chandy-Misra-Bryant-style barrier. Shard i may safely execute every event
// strictly before
//
//   safe_i = min over coupled shards j of (horizon_j + lookahead(j -> i))
//
// where lookahead(j -> i) is the minimum registered WAN delay floor over
// cluster pairs (a in j, b in i) — any message j can still emit arrives no
// earlier than its current horizon plus that floor. Cross-shard traffic
// travels through bounded per-pair mailboxes (l3/sim/mailbox.h): a staging
// buffer on the sender feeding one lane per directed shard pair, carrying a
// shard-count-invariant (origin cluster, origin sequence) key, committed
// into the target Simulator via schedule_delivered(), so the executed event
// order — and therefore every simulation result — is byte-identical for any
// shard count, including 1.
//
// Protocol invariants (the determinism/safety argument, also DESIGN.md §14):
//   * flush-before-publish: a shard delivers all staged messages to its
//     outgoing lanes before publishing a new horizon (a release store);
//   * acquire-then-drain: a shard drains its incoming lanes only after
//     acquire() returns, whose acquire loads of the peers' horizons make all
//     those flushes visible;
//   * a shard that acquires safe > end owes nothing more to anyone: every
//     message still in flight toward it arrives strictly after `end`.
// Horizons are lock-free per-shard atomics. A waiting acquirer spins
// briefly, then parks on its own condition variable; publishers wake only
// parked shards they are coupled to (a Dekker handshake on the parked flag,
// see acquire()/publish()). Shards with no coupled peers see safe = +inf and
// run the whole horizon in one window, so a one-shard run executes exactly
// the plain Simulator loop. Shard 0 runs on the calling thread, the others on
// spawned threads; no thread is pinned to a CPU.
#pragma once

#include "l3/common/assert.h"
#include "l3/common/time.h"
#include "l3/sim/mailbox.h"
#include "l3/sim/simulator.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace l3::sim {

class ShardEngine;

/// Per-shard conservative-barrier counters (one shard, or a sum over
/// several). Scheduling-dependent, so never part of a result digest.
struct BarrierStats {
  std::uint64_t windows = 0;        ///< acquire() calls (one per window)
  std::uint64_t spin_acquires = 0;  ///< acquires satisfied while spinning
  std::uint64_t parks = 0;          ///< acquires that parked on the wake cv
  std::uint64_t wait_ns = 0;        ///< wall time in acquires that waited

  BarrierStats& operator+=(const BarrierStats& o) {
    windows += o.windows;
    spin_acquires += o.spin_acquires;
    parks += o.parks;
    wait_ns += o.wait_ns;
    return *this;
  }
};

/// Per-shard façade over the engine: posting keyed cross-cluster events and
/// driving the conservative window loop. All methods are called exclusively
/// from the owning shard's thread.
class ShardRouter {
 public:
  /// Binds the shard's Simulator (constructed on the shard's own thread —
  /// the Simulator thread-affinity contract carries over).
  void attach(Simulator& sim) { sim_ = &sim; }

  Simulator& sim() const {
    L3_EXPECTS(sim_ != nullptr);
    return *sim_;
  }

  /// Posts a keyed event from `origin` cluster (owned by this shard) to
  /// `target` cluster's owning shard at absolute time `time`. Same-shard
  /// targets schedule immediately; cross-shard targets stage into the
  /// pair's mailbox. In both cases the event carries the same
  /// (origin cluster, origin seq) key, so results cannot depend on which
  /// side of a shard boundary the target happens to live.
  ///
  /// Preconditions: `time >= now + lookahead(origin, target)` when a finite
  /// lookahead is registered for the pair (always required cross-shard —
  /// this is the conservative bound the barrier leans on), else
  /// `time >= now`.
  ///
  /// A same-shard callable is forwarded to schedule_delivered() and built
  /// in its queue slot; a cross-shard one is built into a ShardMessage.
  template <EventCallable F>
  void post(std::uint32_t origin, std::uint32_t target, SimTime time,
            F&& fn) {
    expect_callable(fn);
    const PostKey key = claim_post(origin, target, time);
    if (key.target_shard == shard_) {
      sim_->schedule_delivered(time, origin, key.seq, std::forward<F>(fn));
    } else {
      staging_[key.target_shard].post(
          ShardMessage{time, origin, key.seq, EventFn(std::forward<F>(fn))});
    }
  }

  /// Runs this shard's simulator to `end` under the conservative barrier:
  /// repeatedly acquires a safe horizon, drains + commits lane messages,
  /// executes strictly below the horizon, flushes staging, publishes. The
  /// final window (safe > end) runs inclusively to `end`, exactly like the
  /// legacy Simulator::run_until, then publishes +inf.
  void run_until(SimTime end);

  ShardEngine& engine() const { return *engine_; }
  std::size_t shard() const { return shard_; }

  /// Sum of this shard's outgoing staging counters.
  MailboxStats mailbox_stats() const;

 private:
  friend class ShardEngine;

  struct PostKey {
    std::size_t target_shard;
    std::uint32_t seq;
  };
  /// post()'s routing half: checks its preconditions, then takes the next
  /// origin seq and resolves the target's shard.
  PostKey claim_post(std::uint32_t origin, std::uint32_t target,
                     SimTime time);

  /// Drains each incoming lane, in sender order, into that lane's buffer
  /// and commits every message straight from it into the simulator under
  /// its origin key. Commit order is irrelevant — the EventQueue orders by
  /// the encoded (time, seq) key.
  void drain_commit();
  void flush_all();

  ShardEngine* engine_ = nullptr;
  std::size_t shard_ = 0;
  Simulator* sim_ = nullptr;
  std::vector<MailboxStaging> staging_;   // per target shard; self unused
  /// Per sender shard (self unused): the drain buffer swapped with lane
  /// sender -> this shard, empty between drains.
  std::vector<std::vector<ShardMessage>> inbound_;
  std::vector<std::uint32_t> next_seq_;   // per origin cluster
  SimTime committed_ = 0.0;
};

/// Owns the shards' shared state: cluster->shard ownership, the cluster-pair
/// lookahead table, the shards x shards mailbox lanes, the per-shard
/// routers, the horizon barrier and the worker threads.
class ShardEngine {
 public:
  struct Config {
    std::size_t shards = 1;
    /// Staged messages per shard pair before an early flush.
    std::size_t mailbox_capacity = 256;
  };

  explicit ShardEngine(Config config);
  explicit ShardEngine(std::size_t shards) : ShardEngine(Config{shards}) {}
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Assigns every cluster id to an owning shard (index = cluster id).
  void set_cluster_owners(std::vector<std::size_t> owners);

  /// Registers the delay floor for origin->target cluster traffic (from
  /// WanModel::min_base). Unregistered pairs default to +inf (uncoupled).
  void set_cluster_lookahead(std::uint32_t from, std::uint32_t to,
                             SimDuration lookahead);

  std::size_t shards() const { return shard_count_; }
  std::size_t cluster_count() const { return owners_.size(); }
  std::size_t owner(std::uint32_t cluster) const {
    L3_EXPECTS(cluster < owners_.size());
    return owners_[cluster];
  }
  SimDuration cluster_lookahead(std::uint32_t from, std::uint32_t to) const;
  /// min over (a owned by from, b owned by to) of cluster_lookahead(a, b).
  SimDuration shard_lookahead(std::size_t from, std::size_t to) const;

  ShardRouter& router(std::size_t shard) {
    L3_EXPECTS(shard < shard_count_);
    return *routers_[shard];
  }
  ShardRouter& router_for_cluster(std::uint32_t cluster) {
    return router(owner(cluster));
  }

  /// Runs `body(shard)` once per shard, in parallel: shard 0 on the calling
  /// thread (so thread-local bindings such as an obs recorder or a log
  /// context reach it), the others on spawned threads. Every shard publishes
  /// a +inf horizon when its body returns (or throws), so peers never block
  /// on an idle or finished shard. The first exception thrown by any body
  /// is rethrown here after all threads join.
  void run(const std::function<void(std::size_t)>& body);

  /// Full barrier across all shard bodies (multi-phase setup). Either every
  /// body calls sync() the same number of times, or none do. Throws if
  /// another shard's body failed, instead of deadlocking.
  void sync();

  /// Summed mailbox counters across all routers (call after run()).
  MailboxStats mailbox_stats() const;
  /// One shard's barrier counters, or their sum (call after run()).
  BarrierStats barrier_stats(std::size_t shard) const {
    L3_EXPECTS(shard < shard_count_);
    return slots_[shard].stats;
  }
  BarrierStats barrier_stats() const;

  // --- barrier internals, called by ShardRouter on shard threads ---

  /// Blocks until min over coupled peers of (horizon + lookahead) exceeds
  /// `committed`; returns that bound (+inf when uncoupled), capped at
  /// `committed` + the smallest incoming lookahead while it is finite.
  /// Spins for a bounded budget (unless shards outnumber hardware threads),
  /// then parks.
  SimTime acquire(std::size_t shard, SimTime committed);
  /// Publishes `horizon` for `shard`: every event this shard will still
  /// execute is at or after it. Monotonic. Wakes the parked shards that
  /// consume this horizon.
  void publish(std::size_t shard, SimTime horizon);

  /// The lane carrying shard `from`'s messages to shard `to`.
  MailboxLane& lane(std::size_t from, std::size_t to) {
    L3_EXPECTS(from < shard_count_ && to < shard_count_ && from != to);
    return lanes_[from * shard_count_ + to];
  }

 private:
  void run_shard(std::size_t shard,
                 const std::function<void(std::size_t)>& body);
  /// Builds shard_la_ from owners + cluster lookaheads; validates that
  /// coupled distinct shards have strictly positive lookahead (zero would
  /// deadlock the barrier).
  void prepare();
  /// min over coupled peers j of (horizon_j + lookahead(j -> shard)).
  SimTime safe_bound(std::size_t shard, std::memory_order order) const;
  /// Parks `shard` until its safe bound exceeds `committed`.
  SimTime park(std::size_t shard, SimTime committed);

  /// One shard's barrier state. Each field sits on its own cache line: the
  /// horizon is written by its owner every window and read by consumers,
  /// the parked flag is read by every publisher, and the stats are touched
  /// by the owner only.
  struct Slot {
    alignas(64) std::atomic<SimTime> horizon{0.0};
    alignas(64) std::atomic<bool> parked{false};
    std::condition_variable wake;  // waited on under mu_
    alignas(64) BarrierStats stats;
  };

  Config config_;
  std::size_t shard_count_;
  bool spin_;  // false when shards outnumber hardware threads
  std::vector<std::size_t> owners_;            // cluster -> shard
  std::vector<SimDuration> cluster_la_;        // row-major clusters x clusters
  std::vector<SimDuration> shard_la_;          // row-major shards x shards
  /// Per shard: the coupled peers it reads (producers) and the coupled
  /// peers that read it (consumers), from shard_la_.
  std::vector<std::vector<std::size_t>> producers_;
  std::vector<std::vector<std::size_t>> consumers_;
  /// Per shard: the smallest incoming lookahead, which caps a window.
  std::vector<SimDuration> max_window_;
  std::unique_ptr<MailboxLane[]> lanes_;  // row-major from x to; diagonal unused
  std::vector<std::unique_ptr<ShardRouter>> routers_;
  std::unique_ptr<Slot[]> slots_;

  mutable std::mutex mu_;  // parking, sync() and the error latch
  std::condition_variable cv_;  // sync() only
  std::size_t sync_waiting_ = 0;
  std::uint64_t sync_generation_ = 0;
  bool aborted_ = false;
  std::exception_ptr first_error_;
};

}  // namespace l3::sim
