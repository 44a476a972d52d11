// Allocation regression guards, built on a counting global operator new.
//
// Request path: heap allocations are counted over a short and a long
// hotel-reservation run; the difference divided by the extra requests is
// the marginal allocation count per client request. Fixed set-up costs
// (deployments, proxies, pools growing to their high-water mark) cancel
// out, so what remains is the steady-state request path. It must stay well
// under one allocation per request: the stage frames and every
// continuation are pooled or inline.
//
// Cross-shard mailboxes: the same short/long difference over a sharded
// mega run, divided by the extra mailbox messages. The staging buffers,
// lanes and drain buffers trade vectors and keep their capacity, so a
// steady-state hand-off allocates nothing; the config flushes about two
// batches for every three messages, so an allocation per flush would show
// as well over the bound.
//
// Idle replicas: the bytes allocated to set up one mega region's
// deployment, divided by its replica count. An idle replica must cost
// little more than the Replica object itself: no queue storage until a
// request waits.
//
// Its own executable because the replaced operator new is process-wide.
#include "l3/dsb/runner.h"
#include "l3/mesh/mesh.h"
#include "l3/sim/simulator.h"
#include "l3/workload/mega.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

// Not inlined: GCC would otherwise see a malloc() paired with an operator
// delete, or an operator new paired with a free(), and flag the pair as
// mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace l3::dsb {
namespace {

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t units = 0;  ///< client requests or mailbox messages
};

Counted hotel_run(SimDuration duration) {
  DsbRunnerConfig config;
  config.warmup = 10.0;
  config.duration = duration;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto result = run_hotel_reservation(workload::PolicyKind::kL3, config);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return {after - before, result.requests};
}

TEST(DsbAllocations, HotelRequestPathIsAllocationFree) {
  const Counted short_run = hotel_run(60.0);
  const Counted long_run = hotel_run(300.0);
  ASSERT_GT(long_run.units, short_run.units + 40000);
  const double per_request =
      static_cast<double>(long_run.allocations - short_run.allocations) /
      static_cast<double>(long_run.units - short_run.units);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 0.5)
      << (long_run.allocations - short_run.allocations)
      << " marginal allocations over "
      << (long_run.units - short_run.units) << " requests";
}

Counted mega_sharded_run(SimDuration duration) {
  workload::MegaConfig config;
  config.regions = 8;
  config.replicas_per_region = 4;
  config.rps_per_region = 200.0;
  config.scrape_interval = 2.0;
  config.shards = 4;
  config.duration = duration;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const workload::MegaResult result = workload::run_mega(config);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return {after - before, result.mailbox.messages};
}

TEST(ShardedAllocations, MailboxPathIsAllocationFree) {
  const Counted short_run = mega_sharded_run(10.0);
  const Counted long_run = mega_sharded_run(40.0);
  ASSERT_GT(long_run.units, short_run.units + 50000);
  const double per_message =
      static_cast<double>(long_run.allocations - short_run.allocations) /
      static_cast<double>(long_run.units - short_run.units);
  RecordProperty("allocations_per_mailbox_message",
                 std::to_string(per_message));
  EXPECT_LE(per_message, 0.05)
      << (long_run.allocations - short_run.allocations)
      << " marginal allocations over "
      << (long_run.units - short_run.units) << " mailbox messages";
}

TEST(ReplicaAllocations, IdleReplicaSetUpStaysSmall) {
  // Mega spreads 10,080 backends over 24 regions: 420 replicas each.
  constexpr std::size_t kReplicas = 420;
  sim::Simulator sim;
  mesh::Mesh mesh(sim, SplitRng(7));
  const mesh::ClusterId cluster = mesh.add_cluster("c1");
  auto behavior = std::make_unique<mesh::FixedLatencyBehavior>(0.010, 0.050);
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  mesh.deploy("svc", cluster, {.replicas = kReplicas}, std::move(behavior));
  const std::uint64_t after = g_bytes.load(std::memory_order_relaxed);
  const double per_replica =
      static_cast<double>(after - before) / static_cast<double>(kReplicas);
  RecordProperty("bytes_per_idle_replica", std::to_string(per_replica));
  EXPECT_LE(per_replica, 256.0)
      << (after - before) << " bytes to set up " << kReplicas << " replicas";
}

}  // namespace
}  // namespace l3::dsb
