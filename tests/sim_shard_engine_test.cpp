// Tests for the conservative-lookahead shard engine: ownership + lookahead
// tables, barrier progress, deterministic cross-shard ping-pong, the
// lookahead-violation contract, abort propagation through sync() and
// through acquirers parked in the barrier, the zero-lookahead deadlock
// guard, barrier accounting, and an oversubscribed ring stress run.
#include "l3/sim/shard_engine.h"

#include "l3/common/assert.h"
#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace l3::sim {
namespace {

TEST(ShardEngine, OwnershipAndLookaheadTables) {
  ShardEngine engine(2);
  engine.set_cluster_owners({0, 1, 1});
  EXPECT_EQ(engine.cluster_count(), 3u);
  EXPECT_EQ(engine.owner(0), 0u);
  EXPECT_EQ(engine.owner(2), 1u);

  // Unregistered pairs are uncoupled (+inf).
  EXPECT_FALSE(std::isfinite(engine.cluster_lookahead(0, 1)));

  engine.set_cluster_lookahead(0, 1, 0.010);
  engine.set_cluster_lookahead(0, 2, 0.004);
  EXPECT_EQ(engine.cluster_lookahead(0, 1), 0.010);
  // Shard lookahead is the min over the owned cluster pairs.
  EXPECT_EQ(engine.shard_lookahead(0, 1), 0.004);
  EXPECT_FALSE(std::isfinite(engine.shard_lookahead(1, 0)));
}

TEST(ShardEngine, PostFromForeignClusterThrows) {
  ShardEngine engine(2);
  engine.set_cluster_owners({0, 1});
  Simulator sim;
  ShardRouter& router = engine.router(0);
  router.attach(sim);
  // Cluster 1 is owned by shard 1; shard 0's router must refuse to forge
  // its origin key.
  EXPECT_THROW(router.post(1, 0, 1.0, [] {}), ContractViolation);
}

// A same-shard post builds the closure once, in the target simulator's
// queue slot (the ShardMessage mailbox is for cross-shard posts only).
TEST(ShardEngine, SameShardPostMovesClosureOnce) {
  struct MoveCounter {
    int* moves;
    explicit MoveCounter(int* m) : moves(m) {}
    MoveCounter(MoveCounter&& o) noexcept : moves(o.moves) { ++*moves; }
    MoveCounter(const MoveCounter&) = delete;
  };
  ShardEngine engine(1);
  engine.set_cluster_owners({0, 0});
  Simulator sim;
  ShardRouter& router = engine.router(0);
  router.attach(sim);
  int moves = 0;
  bool fired = false;
  router.post(0, 1, 1.0, [c = MoveCounter(&moves), &fired] { fired = true; });
  EXPECT_EQ(moves, 1);
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(moves, 1);
}

template <typename A>
concept Postable = requires(ShardRouter& r, A&& a) {
  r.post(0, 0, 1.0, std::forward<A>(a));
};
static_assert(Postable<EventFn> && !Postable<EventFn&> &&
              !Postable<const EventFn&>);

TEST(ShardEngine, PostOfEmptyEventFnThrows) {
  ShardEngine engine(1);
  engine.set_cluster_owners({0});
  Simulator sim;
  ShardRouter& router = engine.router(0);
  router.attach(sim);
  EXPECT_THROW(router.post(0, 0, 1.0, EventFn{}), ContractViolation);
  EXPECT_THROW(router.post(0, 0, 1.0, static_cast<void (*)()>(nullptr)),
               ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(ShardEngine, ZeroCrossShardLookaheadIsRejected) {
  ShardEngine engine(2);
  engine.set_cluster_owners({0, 1});
  engine.set_cluster_lookahead(0, 1, 0.0);  // would deadlock the barrier
  EXPECT_THROW(engine.run([](std::size_t) {}), ContractViolation);
}

TEST(ShardEngine, LookaheadViolatingPostThrows) {
  ShardEngine engine(2);
  engine.set_cluster_owners({0, 1});
  engine.set_cluster_lookahead(0, 1, 0.010);
  engine.set_cluster_lookahead(1, 0, 0.010);
  EXPECT_THROW(
      engine.run([&](std::size_t shard) {
        Simulator sim;
        ShardRouter& router = engine.router(shard);
        router.attach(sim);
        if (shard == 0) {
          sim.schedule_at(0.0, [&router] {
            router.post(0, 1, 0.005, [] {});  // below the 10 ms floor
          });
        }
        router.run_until(0.1);
      }),
      ContractViolation);
}

TEST(ShardEngine, BodyExceptionPropagatesThroughSync) {
  ShardEngine engine(2);
  engine.set_cluster_owners({0, 1});
  std::atomic<bool> peer_unblocked{false};
  EXPECT_ANY_THROW(engine.run([&](std::size_t shard) {
    if (shard == 0) throw std::runtime_error("boom");
    engine.sync();  // must throw instead of deadlocking
    peer_unblocked = true;
  }));
  EXPECT_FALSE(peer_unblocked.load());
}

TEST(ShardEngine, UncoupledShardsRunToCompletionIndependently) {
  ShardEngine engine(3);
  engine.set_cluster_owners({0, 1, 2});  // no lookaheads: fully uncoupled
  std::vector<int> counts(3, 0);
  engine.run([&](std::size_t shard) {
    Simulator sim;
    ShardRouter& router = engine.router(shard);
    router.attach(sim);
    for (int i = 0; i < 5; ++i) {
      sim.schedule_at(0.1 * i, [&counts, shard] { ++counts[shard]; });
    }
    router.run_until(1.0);
    EXPECT_EQ(sim.now(), 1.0);
  });
  for (int c : counts) EXPECT_EQ(c, 5);
}

// Two clusters ping-ponging a token with data attached: the receive order
// (and the token's mutation history) must match the single-shard run
// exactly, including the tie at the end where both sides deliver at the
// same instant.
struct PingState {
  std::vector<std::pair<SimTime, std::uint64_t>> received;
};

std::vector<PingState> run_pingpong(std::size_t shards,
                                    BarrierStats* barrier = nullptr) {
  ShardEngine engine(shards);
  std::vector<std::size_t> owners = {0, shards > 1 ? 1ul : 0ul};
  engine.set_cluster_owners(owners);
  engine.set_cluster_lookahead(0, 1, 0.010);
  engine.set_cluster_lookahead(1, 0, 0.010);
  std::vector<PingState> states(2);
  engine.run([&](std::size_t shard) {
    Simulator sim;
    ShardRouter& router = engine.router(shard);
    router.attach(sim);
    struct Bouncer {
      ShardEngine* eng;
      std::vector<PingState>* states;
      std::uint32_t cluster;
      std::uint64_t token;
      void operator()() {
        ShardRouter& rt = eng->router_for_cluster(cluster);
        (*states)[cluster].received.emplace_back(rt.sim().now(), token);
        if (token >= 20) return;
        const std::uint32_t dest = 1 - cluster;
        rt.post(cluster, dest, rt.sim().now() + 0.010,
                Bouncer{eng, states, dest, token * 3 + cluster + 1});
      }
    };
    if (owners[0] == shard) {
      sim.schedule_at(0.0, Bouncer{&engine, &states, 0, 1});
      // A deliberate same-time tie against the bounced token's arrival:
      // delivered keys must order it identically at every shard count.
      sim.schedule_at(0.0, [&engine, st = &states] {
        ShardRouter& rt = engine.router_for_cluster(0);
        rt.post(0, 1, 0.010, [st, eng = &rt.engine()] {
          (*st)[1].received.emplace_back(
              eng->router_for_cluster(1).sim().now(), 999);
        });
      });
    }
    router.run_until(1.0);
  });
  if (barrier != nullptr) *barrier = engine.barrier_stats();
  return states;
}

TEST(ShardEngine, PingPongMatchesSingleShardRun) {
  const auto oracle = run_pingpong(1);
  EXPECT_FALSE(oracle[0].received.empty());
  EXPECT_FALSE(oracle[1].received.empty());
  const auto sharded = run_pingpong(2);
  EXPECT_EQ(sharded[0].received, oracle[0].received);
  EXPECT_EQ(sharded[1].received, oracle[1].received);
}

TEST(ShardEngine, BarrierStatsCountWindowsAndParks) {
  // Uncoupled single shard: one window at +inf, nothing to wait for.
  ShardEngine solo(1);
  solo.set_cluster_owners({0});
  solo.run([&](std::size_t shard) {
    Simulator sim;
    ShardRouter& router = solo.router(shard);
    router.attach(sim);
    sim.schedule_at(0.5, [] {});
    router.run_until(1.0);
  });
  const BarrierStats alone = solo.barrier_stats(0);
  EXPECT_EQ(alone.windows, 1u);
  EXPECT_EQ(alone.spin_acquires, 0u);
  EXPECT_EQ(alone.parks, 0u);
  EXPECT_EQ(alone.wait_ns, 0u);

  // Coupled ping-pong: 1.0 s at a 10 ms lookahead takes many windows, and
  // a window waits only if it spun or parked.
  BarrierStats coupled;
  run_pingpong(2, &coupled);
  EXPECT_GT(coupled.windows, 2u * 50u);
  EXPECT_LE(coupled.spin_acquires + coupled.parks, coupled.windows);
}

TEST(ShardEngine, WindowIsCappedAtOneLookaheadUntilPeersFinish) {
  ShardEngine engine(2);
  engine.set_cluster_owners({0, 1});
  engine.set_cluster_lookahead(0, 1, 0.010);
  engine.set_cluster_lookahead(1, 0, 0.010);
  std::atomic<bool> published{false};
  std::atomic<bool> acquired{false};
  SimTime capped = 0.0;
  SimTime after_peer_done = 0.0;
  engine.run([&](std::size_t shard) {
    if (shard == 1) {
      // One lookahead ahead of shard 0: its raw bound is 0 + 2 lookaheads.
      engine.publish(1, 0.010);
      published = true;
      while (!acquired.load()) std::this_thread::yield();
      return;  // publishes +inf
    }
    while (!published.load()) std::this_thread::yield();
    capped = engine.acquire(0, 0.0);
    acquired = true;
    // Past shard 1's current reach, so this waits for its +inf.
    after_peer_done = engine.acquire(0, 0.020);
  });
  EXPECT_EQ(capped, 0.010);
  EXPECT_FALSE(std::isfinite(after_peer_done));
}

TEST(ShardEngine, BodyExceptionWakesPeersParkedInAcquire) {
  // Three mutually coupled shards. Shard 0 never publishes a horizon, so
  // after one window its peers block in acquire(); once they have had ample
  // time to park, shard 0 throws. Its +inf publish must wake them, and
  // run() must rethrow instead of hanging.
  ShardEngine engine(3);
  engine.set_cluster_owners({0, 1, 2});
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      if (i != j) engine.set_cluster_lookahead(i, j, 0.010);
    }
  }
  std::atomic<int> peers_in_first_window{0};
  EXPECT_THROW(engine.run([&](std::size_t shard) {
                 if (shard == 0) {
                   while (peers_in_first_window.load() < 2) {
                     std::this_thread::yield();
                   }
                   std::this_thread::sleep_for(std::chrono::milliseconds(100));
                   throw std::runtime_error("boom");
                 }
                 Simulator sim;
                 ShardRouter& router = engine.router(shard);
                 router.attach(sim);
                 sim.schedule_at(0.005, [&] { ++peers_in_first_window; });
                 router.run_until(1.0);
                 EXPECT_EQ(sim.now(), 1.0);
               }),
               std::runtime_error);
  EXPECT_GE(engine.barrier_stats(1).parks, 1u);
  EXPECT_GE(engine.barrier_stats(2).parks, 1u);
}

// A token ring over one cluster per shard, every pair coupled with its own
// lookahead, so each shard's safe bound depends on all of its peers. One
// token starts per cluster; each hops to the next cluster or, on every
// third token value, skips one ahead, which creates same-time arrivals from
// different origins.
std::vector<PingState> run_ring(std::size_t clusters, std::size_t shards,
                                BarrierStats* barrier) {
  ShardEngine engine(shards);
  std::vector<std::size_t> owners(clusters);
  for (std::size_t c = 0; c < clusters; ++c) owners[c] = c * shards / clusters;
  engine.set_cluster_owners(owners);
  const auto la = [](std::uint32_t from, std::uint32_t to) {
    return 0.004 + 0.001 * ((from + to) % 3);
  };
  for (std::uint32_t i = 0; i < clusters; ++i) {
    for (std::uint32_t j = 0; j < clusters; ++j) {
      if (i != j) engine.set_cluster_lookahead(i, j, la(i, j));
    }
  }
  std::vector<PingState> states(clusters);
  struct Hop {
    ShardEngine* eng;
    std::vector<PingState>* states;
    std::uint32_t cluster;
    std::uint64_t token;
    void operator()() const {
      ShardRouter& rt = eng->router_for_cluster(cluster);
      const SimTime now = rt.sim().now();
      (*states)[cluster].received.emplace_back(now, token);
      if (now > 0.4) return;
      const auto n = static_cast<std::uint32_t>(states->size());
      const bool skip = token % 3 == 0;
      const std::uint32_t next = (cluster + (skip ? 2 : 1)) % n;
      const SimTime extra = skip ? 0.0 : 0.001 * static_cast<double>(token % 4);
      rt.post(cluster, next, now + 0.006 + extra,
              Hop{eng, states, next, token * 7 % 1009 + 1});
    }
  };
  engine.run([&](std::size_t shard) {
    Simulator sim;
    ShardRouter& router = engine.router(shard);
    router.attach(sim);
    for (std::uint32_t c = 0; c < clusters; ++c) {
      if (owners[c] == shard) {
        sim.schedule_at(0.0, Hop{&engine, &states, c, c + 1u});
      }
    }
    router.run_until(0.5);
  });
  if (barrier != nullptr) *barrier = engine.barrier_stats();
  return states;
}

TEST(ShardEngine, OversubscribedRingMatchesSingleShardRun) {
  // More shards than hardware threads turns spinning off, so every wait
  // goes through the park/wake handshake; a lost wakeup hangs the run and a
  // protocol slip changes the receive logs.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t shards = 2 * hw + 1;
  const auto oracle = run_ring(shards, 1, nullptr);
  for (const PingState& s : oracle) EXPECT_GT(s.received.size(), 10u);
  for (int rep = 0; rep < 50; ++rep) {
    BarrierStats barrier;
    const auto sharded = run_ring(shards, shards, &barrier);
    ASSERT_EQ(sharded.size(), oracle.size());
    for (std::size_t c = 0; c < oracle.size(); ++c) {
      ASSERT_EQ(sharded[c].received, oracle[c].received)
          << "cluster " << c << ", rep " << rep;
    }
    EXPECT_EQ(barrier.spin_acquires, 0u);
    EXPECT_GE(barrier.windows, shards);
  }
}

}  // namespace
}  // namespace l3::sim
