// Allocation regression guard for the DeathStarBench request path.
//
// A counting global operator new measures heap allocations over a short
// and a long hotel-reservation run; the difference divided by the extra
// requests is the marginal allocation count per client request. Fixed
// set-up costs (deployments, proxies, pools growing to their high-water
// mark) cancel out, so what remains is the steady-state request path. It
// must stay well under one allocation per request: the stage frames and
// every continuation are pooled or inline. Its own executable because the
// replaced operator new is process-wide.
#include "l3/dsb/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace l3::dsb {
namespace {

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t requests = 0;
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
  ASSERT_GT(long_run.requests, short_run.requests + 40000);
  const double per_request =
      static_cast<double>(long_run.allocations - short_run.allocations) /
      static_cast<double>(long_run.requests - short_run.requests);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 0.5)
      << (long_run.allocations - short_run.allocations)
      << " marginal allocations over "
      << (long_run.requests - short_run.requests) << " requests";
}

}  // namespace
}  // namespace l3::dsb
