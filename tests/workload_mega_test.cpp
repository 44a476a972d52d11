// Tests for the mega scale scenario: shard-count invariance of the full
// digest (fault-free and chaos runs), the 10k-backend smoke, and the
// mailbox/audit plumbing it exercises.
#include "l3/workload/mega.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

namespace l3::workload {
namespace {

MegaConfig small_config() {
  MegaConfig config;
  config.regions = 8;
  config.replicas_per_region = 4;
  config.duration = 1.5;
  config.rps_per_region = 40.0;
  config.scrape_interval = 0.5;
  config.audit_interval = 0.5;
  return config;
}

TEST(Mega, DigestIsShardCountInvariant) {
  MegaConfig config = small_config();
  config.shards = 1;
  const MegaResult oracle = run_mega(config);
  EXPECT_GT(oracle.total_requests, 0u);
  EXPECT_GT(oracle.total_events, 0u);
  EXPECT_FALSE(oracle.audit.empty());
  EXPECT_EQ(oracle.mailbox.messages, 0u);  // one shard: no mailbox traffic

  for (const std::size_t shards : {2ul, 4ul, 8ul}) {
    MegaConfig sharded = small_config();
    sharded.shards = shards;
    const MegaResult got = run_mega(sharded);
    EXPECT_EQ(got.digest(), oracle.digest()) << "shards=" << shards;
    EXPECT_GT(got.mailbox.messages, 0u) << "shards=" << shards;
  }
}

TEST(Mega, ProxyCostDigestIsShardCountInvariant) {
  // The data-plane cost model (DESIGN.md §16) is pure arithmetic on the
  // outbound leg — no extra events, no RNG draws — so a costed mega run
  // must stay shard-count invariant like the cost-free one.
  MegaConfig config = small_config();
  config.proxy_cost.cpu_per_request = 0.0005;
  config.proxy_cost.handshake_cost = 0.002;
  config.proxy_cost.concurrency = 4;
  config.proxy_cost.pool_size = 8;
  config.proxy_cost.idle_timeout = 1.0;
  config.shards = 1;
  const MegaResult oracle = run_mega(config);
  EXPECT_GT(oracle.total_requests, 0u);

  for (const std::size_t shards : {2ul, 4ul}) {
    MegaConfig sharded = config;
    sharded.shards = shards;
    const MegaResult got = run_mega(sharded);
    EXPECT_EQ(got.digest(), oracle.digest()) << "shards=" << shards;
  }
}

TEST(Mega, ChaosDigestIsShardCountInvariant) {
  MegaConfig config = small_config();
  config.chaos = true;  // region 3 crashes + brownout 0<->1 + partition 1<->2
  config.shards = 1;
  const MegaResult oracle = run_mega(config);
  EXPECT_GT(oracle.total_requests, 0u);

  // The faults actually bit: at least one region saw failures.
  bool any_failures = false;
  for (const MegaRegionResult& r : oracle.regions) {
    if (r.success_rate < 1.0) any_failures = true;
  }
  EXPECT_TRUE(any_failures);

  for (const std::size_t shards : {2ul, 4ul}) {
    MegaConfig sharded = small_config();
    sharded.chaos = true;
    sharded.shards = shards;
    const MegaResult got = run_mega(sharded);
    EXPECT_EQ(got.digest(), oracle.digest()) << "shards=" << shards;
  }
}

TEST(Mega, MailboxCapacityOnlyAffectsFlushTiming) {
  MegaConfig base = small_config();
  base.shards = 4;
  const MegaResult loose = run_mega(base);
  MegaConfig tight = small_config();
  tight.shards = 4;
  // Capacity 1: every post to a target after that target's first post in
  // a window finds the buffer full and flushes early.
  tight.mailbox_capacity = 1;
  const MegaResult got = run_mega(tight);
  EXPECT_EQ(got.digest(), loose.digest());
  EXPECT_EQ(got.mailbox.messages, loose.mailbox.messages);
  // The default capacity never fills here, while capacity 1 does: the
  // comparison above covers real early flushes, not two flush-free runs.
  EXPECT_EQ(loose.mailbox.capacity_flushes, 0u);
  EXPECT_GT(got.mailbox.capacity_flushes, 0u);
}

TEST(Mega, AuditHandledCountsAreMonotonePerRegion) {
  MegaConfig config = small_config();
  config.shards = 2;
  const MegaResult result = run_mega(config);
  ASSERT_FALSE(result.audit.empty());
  std::map<std::uint32_t, std::uint64_t> last;
  SimTime last_time = 0.0;
  for (const MegaAuditEntry& a : result.audit) {
    EXPECT_GE(a.time, last_time);  // delivery order
    last_time = a.time;
    const auto it = last.find(a.region);
    if (it != last.end()) {
      EXPECT_GE(a.handled, it->second);
    }
    last[a.region] = a.handled;
  }
  EXPECT_EQ(last.size(), config.regions);  // every region replied
}

TEST(Mega, BarrierOpensOneWindowPerLookahead) {
  // Each shard's window spans up to one lookahead (wan_base), so a run
  // opens about shards·(duration + 5 s drain)/wan_base windows whatever the
  // host's scheduling. The bound allows twice that; a barrier that
  // synchronised per event would open >10x more (the run has ~128k events).
  MegaConfig config = small_config();
  config.duration = 2.0;
  config.rps_per_region = 2000.0;
  config.shards = 4;
  const MegaResult result = run_mega(config);
  ASSERT_GT(result.total_events, 100000u);
  const auto lookaheads = static_cast<std::uint64_t>(
      std::ceil((config.duration + 5.0) / config.wan_base));
  EXPECT_GE(result.barrier.windows, config.shards * lookaheads);
  EXPECT_LE(result.barrier.windows,
            2 * config.shards * lookaheads + config.shards);
}

TEST(Mega, TenThousandBackendSmoke) {
  MegaConfig config;  // the real topology: 24 x 420 = 10 080 backends
  config.shards = 4;
  config.duration = 1.0;
  config.rps_per_region = 50.0;
  config.scrape_interval = 0.5;
  const MegaResult result = run_mega(config);
  ASSERT_EQ(result.regions.size(), 24u);
  EXPECT_GT(result.total_requests, 24u * 30u);
  EXPECT_GT(result.mailbox.messages, 0u);
  for (const MegaRegionResult& r : result.regions) {
    EXPECT_GT(r.requests, 0u);
    EXPECT_GT(r.handled, 0u);
  }
}

}  // namespace
}  // namespace l3::workload
