// Batched dispatch tests.
//
// Simulator::run_until drains the event queue in batches of a fixed 64
// (EventQueue::dispatch_batch). Batching is a pure caller-overhead saving:
// dispatch_batch pops events in exactly the order repeated pop_min() calls
// would, so a full scenario run yields the same request trace as a strictly
// per-event loop. These tests pin that at both layers — the queue primitive
// directly, and end-to-end trace hashes across scenarios 1-5, Poisson
// arrivals with retries, and a chaos plan. Each golden was recorded with
// the per-event loop (batch 1) and with batches of 7 and 64 before the
// batch size became a constant; all three gave the same hash. See
// sim_determinism_test.cpp before re-recording one.
#include "l3/sim/event.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include "trace_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace l3 {
namespace {

// --- EventQueue::dispatch_batch against pop_min ---------------------------

TEST(DispatchBatch, PopsInSameOrderAsPopMin) {
  sim::EventQueue batched;
  sim::EventQueue serial;
  std::vector<int> batched_order;
  std::vector<int> serial_order;
  std::uint64_t seq = 0;
  // Deliberate tie pile-up at t=2.0: FIFO-by-seq must hold in both modes.
  const double times[] = {5.0, 2.0, 2.0, 9.0, 2.0, 1.0, 7.0, 2.0};
  for (double t : times) {
    const int id = static_cast<int>(seq);
    batched.push(t, seq, [&batched_order, id] { batched_order.push_back(id); });
    serial.push(t, seq, [&serial_order, id] { serial_order.push_back(id); });
    ++seq;
  }
  while (!serial.empty()) serial.pop_min().fn();
  while (!batched.empty()) {
    batched.dispatch_batch(std::numeric_limits<SimTime>::infinity(), 3,
                           [](SimTime, sim::EventFn& fn) {
                             fn();
                             return true;
                           });
  }
  EXPECT_EQ(batched_order, serial_order);
}

TEST(DispatchBatch, ReentrantPushAtCurrentTimeRunsWithinBatch) {
  sim::EventQueue queue;
  std::vector<int> order;
  std::uint64_t seq = 0;
  queue.push(1.0, seq++, [&] {
    order.push_back(0);
    // Same-timestamp push from inside a batch: must be popped by this very
    // batch (it is the earliest pending event once the current one ends).
    queue.push(1.0, 99, [&order] { order.push_back(99); });
  });
  queue.push(2.0, seq++, [&] { order.push_back(1); });
  const std::size_t n = queue.dispatch_batch(
      10.0, 16, [](SimTime, sim::EventFn& fn) {
        fn();
        return true;
      });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 99, 1}));
}

TEST(DispatchBatch, RespectsEndTimeAndMaxN) {
  sim::EventQueue queue;
  int fired = 0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    queue.push(static_cast<double>(s), s, [&fired] { ++fired; });
  }
  auto run_all = [](SimTime, sim::EventFn& fn) {
    fn();
    return true;
  };
  // max_n caps the batch even with due events remaining.
  EXPECT_EQ(queue.dispatch_batch(100.0, 4, run_all), 4u);
  EXPECT_EQ(fired, 4);
  // end stops before events scheduled past it (t=8, t=9 stay queued).
  EXPECT_EQ(queue.dispatch_batch(7.5, 100, run_all), 4u);
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(DispatchBatch, SinkReturningFalseEndsBatchAfterThatEvent) {
  sim::EventQueue queue;
  int fired = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    queue.push(1.0, s, [&fired] { ++fired; });
  }
  const std::size_t n =
      queue.dispatch_batch(10.0, 100, [&fired](SimTime, sim::EventFn& fn) {
        fn();
        return fired < 3;  // stop request, as run_until's stop() path does
      });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(queue.size(), 3u);
}

// --- End-to-end: pinned trace hashes ------------------------------------

namespace w = workload;
using test_util::trace_hash;

constexpr std::uint64_t kGoldenScenario1 = 0xc9586e0c4aa158ebull;
constexpr std::uint64_t kGoldenScenario2 = 0xf24bc89bff68a149ull;
constexpr std::uint64_t kGoldenScenario3 = 0x1df9c3c56bccf47full;
constexpr std::uint64_t kGoldenScenario4 = 0x35ff38cc45e0eb37ull;
constexpr std::uint64_t kGoldenScenario5 = 0xfd2bcf59dc725d13ull;
constexpr std::uint64_t kGoldenPoissonRetries = 0x4b8b4e3a8ba5c7b8ull;
constexpr std::uint64_t kGoldenChaosPlan = 0xc2a0c935e1516c8eull;

w::RunnerConfig base_config() {
  w::RunnerConfig config;
  config.seed = 42;
  config.warmup = 10.0;
  config.duration = 20.0;
  return config;
}

void expect_golden(const w::ScenarioTrace& trace, w::PolicyKind policy,
                   const w::RunnerConfig& config, std::uint64_t golden) {
  const auto result = w::run_scenario(trace, policy, config);
  ASSERT_GT(result.requests, 100u) << "scenario produced no real load";
  EXPECT_EQ(trace_hash(result), golden)
      << "trace hash changed: 0x" << std::hex << trace_hash(result);
}

TEST(BatchedTraceIdentity, Scenario1) {
  expect_golden(w::make_scenario1(1), w::PolicyKind::kL3, base_config(),
                kGoldenScenario1);
}

TEST(BatchedTraceIdentity, Scenario2) {
  expect_golden(w::make_scenario2(2), w::PolicyKind::kL3, base_config(),
                kGoldenScenario2);
}

TEST(BatchedTraceIdentity, Scenario3) {
  expect_golden(w::make_scenario3(3), w::PolicyKind::kL3, base_config(),
                kGoldenScenario3);
}

TEST(BatchedTraceIdentity, Scenario4) {
  expect_golden(w::make_scenario4(4), w::PolicyKind::kL3, base_config(),
                kGoldenScenario4);
}

TEST(BatchedTraceIdentity, Scenario5) {
  expect_golden(w::make_scenario5(5), w::PolicyKind::kL3, base_config(),
                kGoldenScenario5);
}

TEST(BatchedTraceIdentity, PoissonArrivalsWithRetries) {
  // Poisson + kViaSplit: the client pre-generates arrival blocks with real
  // gap draws on its stream, plus the retry path.
  auto config = base_config();
  config.poisson_arrivals = true;
  config.client_retries = 1;
  expect_golden(w::make_failure1(6), w::PolicyKind::kC3, config,
                kGoldenPoissonRetries);
}

TEST(BatchedTraceIdentity, ChaosPlan) {
  // Every fault kind active: crash/restart, brownout, partition, scrape
  // outage, controller pause.
  auto config = base_config();
  config.health_probe_interval = 0.0;
  config.faults.crash("api", 1, 5.0, 10.0)
      .brownout(0, 2, 8.0, 10.0, 0.050)
      .partition(0, 1, 18.0, 6.0)
      .scrape_outage(22.0, 5.0)
      .controller_pause(25.0, 4.0);
  expect_golden(w::make_scenario1(1), w::PolicyKind::kL3, config,
                kGoldenChaosPlan);
}

}  // namespace
}  // namespace l3
