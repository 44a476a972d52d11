// Tests for the cross-shard mailboxes: staging flush/capacity counters,
// lane batch hand-off (also under a concurrently draining receiver), and
// the keyed-delivery property test — a synthetic multi-cluster cascade
// executed at several shard counts, checked for exact per-cluster log
// equality against the single-shard run (which IS the
// single-queue oracle: with one shard every post commits straight into one
// Simulator via schedule_delivered).
#include "l3/sim/mailbox.h"

#include "l3/common/rng.h"
#include "l3/sim/shard_engine.h"
#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace l3::sim {
namespace {

ShardMessage make_msg(SimTime t, std::uint32_t cluster, std::uint32_t seq) {
  ShardMessage m;
  m.time = t;
  m.origin_cluster = cluster;
  m.origin_seq = seq;
  m.fn = [] {};
  return m;
}

TEST(Mailbox, StagingFlushesWhenFullAndCountsTraffic) {
  MailboxLane lane;
  MailboxStaging staging;
  staging.bind(&lane, 3);

  for (std::uint32_t i = 0; i < 7; ++i) {
    staging.post(make_msg(1.0 + i, 0, i));
  }
  // Posts 4 and 7 found a full buffer: two forced flushes so far.
  EXPECT_EQ(staging.stats().messages, 7u);
  EXPECT_EQ(staging.stats().capacity_flushes, 2u);
  EXPECT_EQ(staging.stats().flushes, 2u);
  EXPECT_FALSE(staging.empty());

  staging.flush();  // window-boundary flush
  EXPECT_TRUE(staging.empty());
  EXPECT_EQ(staging.stats().flushes, 3u);
  EXPECT_EQ(staging.stats().capacity_flushes, 2u);

  staging.flush();  // empty flush is a no-op, not counted
  EXPECT_EQ(staging.stats().flushes, 3u);

  std::vector<ShardMessage> out;
  EXPECT_EQ(lane.drain(out), 7u);
  ASSERT_EQ(out.size(), 7u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[i].origin_seq, i);  // batch order = post order
  }
  out.clear();
  EXPECT_EQ(lane.drain(out), 0u);  // drained clean
  EXPECT_TRUE(out.empty());
}

TEST(Mailbox, DeliverLeavesBatchEmptyAndReusable) {
  MailboxLane lane;
  std::vector<ShardMessage> batch;
  batch.push_back(make_msg(1.0, 2, 0));
  batch.push_back(make_msg(2.0, 2, 1));
  lane.deliver(batch);  // empty lane: the batch is swapped in whole
  EXPECT_TRUE(batch.empty());

  batch.push_back(make_msg(3.0, 2, 2));
  lane.deliver(batch);  // undrained lane: appended behind the first batch
  EXPECT_TRUE(batch.empty());

  std::vector<ShardMessage> out;
  EXPECT_EQ(lane.drain(out), 3u);
  EXPECT_EQ(out[2].time, 3.0);
  EXPECT_EQ(out[2].origin_seq, 2u);
}

TEST(Mailbox, LaneHandOffIsExactlyOnceUnderConcurrentDrain) {
  // One sender thread streams messages through a capacity-3 staging buffer
  // (so nearly every flush is a capacity flush, racing the receiver) while
  // the receiver drains in a loop. Every seq must arrive exactly once, in
  // post order, whichever of swap-in and append each delivery took.
  constexpr std::uint32_t kMessages = 120000;
  MailboxLane lane;
  std::atomic<bool> done{false};
  std::thread sender([&] {
    MailboxStaging staging;
    staging.bind(&lane, 3);
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      staging.post(make_msg(1.0, 0, i));
    }
    staging.flush();
    done.store(true, std::memory_order_release);
  });

  std::vector<ShardMessage> out;
  std::uint32_t next = 0;
  std::uint64_t drains = 0;
  bool ordered = true;
  for (;;) {
    // Read the flag BEFORE draining: a drain that follows done == true
    // sees the final flush, so nothing can be left behind.
    const bool last = done.load(std::memory_order_acquire);
    lane.drain(out);
    for (const ShardMessage& m : out) {
      ordered = ordered && m.origin_seq == next;
      ++next;
    }
    out.clear();
    ++drains;
    if (last) break;
  }
  sender.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(next, kMessages);
  EXPECT_GT(drains, 1u);
  EXPECT_EQ(lane.drain(out), 0u);
}

// --- keyed-delivery property test -----------------------------------------
//
// A random cascade over C clusters: every firing appends (time, counter) to
// its cluster's log and, while hops remain, draws a destination + delay from
// the CLUSTER's own rng stream and posts the next hop through the router.
// All cross-cluster state flows through keyed posts, so each cluster's log
// must be byte-identical for every shard count.

constexpr double kLa = 0.001;  // registered lookahead for every pair

struct ClusterState {
  explicit ClusterState(std::uint64_t seed) : rng(seed) {}
  SplitRng rng;
  std::vector<std::pair<SimTime, std::uint32_t>> log;
  std::uint32_t emitted = 0;
};

void fire(ShardEngine* eng, std::vector<ClusterState>* states,
          std::uint32_t cluster, int hops) {
  ClusterState& st = (*states)[cluster];
  ShardRouter& rt = eng->router_for_cluster(cluster);
  const SimTime now = rt.sim().now();
  st.log.emplace_back(now, st.emitted++);
  if (hops <= 0) return;
  const auto n = static_cast<std::uint32_t>(states->size());
  const auto dest = std::min(
      n - 1, static_cast<std::uint32_t>(st.rng.uniform() * n));
  const double delay = kLa + st.rng.uniform() * 0.003;
  rt.post(cluster, dest, now + delay, [eng, states, dest, hops] {
    fire(eng, states, dest, hops - 1);
  });
}

std::vector<ClusterState> run_cascade(std::size_t clusters,
                                      std::size_t shards) {
  std::vector<ClusterState> states;
  for (std::size_t c = 0; c < clusters; ++c) {
    states.emplace_back(1000 + c);
  }
  ShardEngine::Config cfg;
  cfg.shards = shards;
  cfg.mailbox_capacity = 4;  // small: force plenty of capacity flushes
  ShardEngine engine(cfg);
  std::vector<std::size_t> owners(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    owners[c] = c * shards / clusters;
  }
  engine.set_cluster_owners(owners);
  for (std::uint32_t i = 0; i < clusters; ++i) {
    for (std::uint32_t j = 0; j < clusters; ++j) {
      if (i != j) engine.set_cluster_lookahead(i, j, kLa);
    }
  }
  engine.run([&](std::size_t shard) {
    Simulator sim;  // constructed, run and destroyed on the shard's thread
    ShardRouter& router = engine.router(shard);
    router.attach(sim);
    for (std::uint32_t c = 0; c < clusters; ++c) {
      if (owners[c] != shard) continue;
      for (int k = 0; k < 8; ++k) {
        sim.schedule_at(
            0.0005 * c + 0.001 * k,
            [eng = &engine, st = &states, c] { fire(eng, st, c, 40); });
      }
    }
    router.run_until(0.5);
  });
  return states;
}

TEST(Mailbox, CascadeLogsAreShardCountInvariant) {
  const std::size_t clusters = 6;
  const auto oracle = run_cascade(clusters, 1);  // single-queue oracle
  std::uint64_t total = 0;
  for (const auto& st : oracle) total += st.log.size();
  EXPECT_GT(total, 6u * 8u * 30u);  // the cascade actually cascaded

  for (const std::size_t shards : {2ul, 3ul, 6ul}) {
    const auto got = run_cascade(clusters, shards);
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t c = 0; c < clusters; ++c) {
      EXPECT_EQ(got[c].log, oracle[c].log)
          << "cluster " << c << " diverged at shards=" << shards;
    }
  }
}

TEST(Mailbox, CrossShardTrafficUsesTheMailboxes) {
  ShardEngine::Config cfg;
  cfg.shards = 2;
  cfg.mailbox_capacity = 4;
  ShardEngine engine(cfg);
  engine.set_cluster_owners({0, 1});
  engine.set_cluster_lookahead(0, 1, kLa);
  engine.set_cluster_lookahead(1, 0, kLa);
  std::vector<int> hits(2, 0);
  engine.run([&](std::size_t shard) {
    Simulator sim;
    ShardRouter& router = engine.router(shard);
    router.attach(sim);
    const auto origin = static_cast<std::uint32_t>(shard);
    const std::uint32_t target = 1 - origin;
    sim.schedule_at(0.0, [&hits, &router, origin, target] {
      for (std::uint32_t i = 0; i < 10; ++i) {
        router.post(origin, target, 0.002 + 0.001 * i,
                    [&hits, target] { ++hits[target]; });
      }
    });
    router.run_until(0.05);
  });
  EXPECT_EQ(hits[0], 10);
  EXPECT_EQ(hits[1], 10);
  const MailboxStats stats = engine.mailbox_stats();
  EXPECT_EQ(stats.messages, 20u);
  EXPECT_GE(stats.flushes, 2u);
  EXPECT_GE(stats.capacity_flushes, 2u);  // 10 > capacity 4, both directions
}

}  // namespace
}  // namespace l3::sim
