// Tests for the open-loop client, timeline aggregation and summaries.
#include "l3/workload/client.h"

#include "l3/mesh/mesh.h"
#include "l3/workload/trace_behavior.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace l3::workload {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : rng(31), mesh(sim, rng) {
    c1 = mesh.add_cluster("c1");
    mesh.deploy("svc", c1, {},
                std::make_unique<mesh::FixedLatencyBehavior>(0.010, 0.030));
  }

  sim::Simulator sim;
  SplitRng rng;
  mesh::Mesh mesh;
  mesh::ClusterId c1 = 0;
};

TEST_F(ClientTest, ConstantRateSendsExpectedCount) {
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 100.0; },
                        rng.split("c"));
  client.start(0.0, 10.0);
  sim.run_until(15.0);
  EXPECT_NEAR(static_cast<double>(client.sent()), 1000.0, 2.0);
  EXPECT_EQ(client.completed(), client.sent());
}

TEST_F(ClientTest, OpenLoopDoesNotWaitForResponses) {
  // Slow service (1 s) at 100 RPS: an open-loop client keeps firing.
  mesh::Mesh slow_mesh(sim, SplitRng(1));
  const auto a = slow_mesh.add_cluster("a");
  slow_mesh.deploy(
      "svc", a, {.replicas = 1, .concurrency = 4096, .queue_capacity = 1},
      std::make_unique<mesh::FixedLatencyBehavior>(1.0, 1.001));
  OpenLoopClient client(slow_mesh, a, "svc", [](SimTime) { return 100.0; },
                        SplitRng(2));
  client.start(0.0, 2.0);
  sim.run_until(1.5);
  EXPECT_GT(client.sent(), 100u);  // far more than completed
}

TEST_F(ClientTest, RateFunctionFollowedOverTime) {
  OpenLoopClient client(
      mesh, c1, "svc",
      [](SimTime t) { return t < 5.0 ? 50.0 : 200.0; }, rng.split("c"));
  client.start(0.0, 10.0);
  sim.run_until(15.0);
  const auto timeline = aggregate_timeline(client.records(), 0.0, 10.0, 5.0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_NEAR(timeline[0].rps, 50.0, 5.0);
  EXPECT_NEAR(timeline[1].rps, 200.0, 10.0);
}

TEST_F(ClientTest, PoissonArrivalsApproximateRate) {
  OpenLoopClient::Config config;
  config.poisson = true;
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 100.0; },
                        rng.split("p"), config);
  client.start(0.0, 20.0);
  sim.run_until(25.0);
  EXPECT_NEAR(static_cast<double>(client.sent()), 2000.0, 150.0);
}

TEST_F(ClientTest, RecordsAfterDropsWarmup) {
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 100.0; },
                        rng.split("c"));
  client.start(0.0, 10.0);
  sim.run_until(15.0);
  const auto post = client.records_after(5.0);
  EXPECT_NEAR(static_cast<double>(post.size()), 500.0, 5.0);
  for (const auto& r : post) EXPECT_GE(r.sent, 5.0);
}

TEST_F(ClientTest, LocalDirectModeBypassesSplit) {
  OpenLoopClient::Config config;
  config.mode = CallMode::kLocalDirect;
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 50.0; },
                        rng.split("d"), config);
  client.start(0.0, 4.0);
  sim.run_until(10.0);
  EXPECT_GT(client.completed(), 150u);
  EXPECT_EQ(mesh.find_split(c1, "svc"), nullptr);  // no split was created
  for (const auto& r : client.records()) {
    EXPECT_EQ(r.backend_cluster, c1);
    EXPECT_TRUE(r.success);
    EXPECT_GT(r.latency, 0.0);
  }
}

TEST_F(ClientTest, RetriesTurnFailuresIntoSuccesses) {
  mesh::Mesh failing_mesh(sim, SplitRng(8));
  const auto a = failing_mesh.add_cluster("a");
  failing_mesh.deploy(
      "svc", a, {},
      std::make_unique<mesh::FixedLatencyBehavior>(0.010, 0.030, 0.5));
  OpenLoopClient::Config config;
  config.max_retries = 5;
  config.retry_backoff = 0.01;
  OpenLoopClient client(failing_mesh, a, "svc", [](SimTime) { return 50.0; },
                        SplitRng(9), config);
  client.start(0.0, 20.0);
  sim.run_until(40.0);
  const auto s = summarize_records(client.records());
  // 5 retries against a 50 % success rate: ~98.4 % end up successful.
  EXPECT_GT(s.success_rate, 0.95);
  // Retried requests accumulate latency: mean latency of all requests must
  // exceed a single attempt's ~10 ms median noticeably.
  int multi_attempt = 0;
  for (const auto& r : client.records()) {
    EXPECT_GE(r.attempts, 1);
    EXPECT_LE(r.attempts, 6);
    if (r.attempts > 1) ++multi_attempt;
  }
  EXPECT_GT(multi_attempt, 300);  // ~half of 1000 requests needed a retry
}

TEST_F(ClientTest, NoRetriesByDefault) {
  mesh::Mesh failing_mesh(sim, SplitRng(10));
  const auto a = failing_mesh.add_cluster("a");
  failing_mesh.deploy(
      "svc", a, {},
      std::make_unique<mesh::FixedLatencyBehavior>(0.010, 0.030, 0.5));
  OpenLoopClient client(failing_mesh, a, "svc", [](SimTime) { return 50.0; },
                        SplitRng(11));
  client.start(0.0, 20.0);
  sim.run_until(40.0);
  const auto s = summarize_records(client.records());
  EXPECT_NEAR(s.success_rate, 0.5, 0.06);
  for (const auto& r : client.records()) EXPECT_EQ(r.attempts, 1);
}

/// The per-event arrival recurrence the client's pre-generated blocks must
/// reproduce: fire at `begin`, then draw one gap per arrival at the current
/// rate, and stop at the first draw that crosses `end`.
std::vector<SimTime> reference_arrivals(const OpenLoopClient::RpsFn& rps,
                                        SplitRng rng, bool poisson,
                                        SimTime begin, SimTime end) {
  std::vector<SimTime> out{begin};
  for (SimTime t = begin;;) {
    const double rate = std::max(0.1, rps(t));
    t += poisson ? rng.exponential(rate) : 1.0 / rate;
    if (t >= end) return out;
    out.push_back(t);
  }
}

TEST_F(ClientTest, ArrivalBlocksMatchPerEventRecurrence) {
  // Rates of a few hundred RPS over windows of 0.05-1.2 s give from a few
  // to several hundred arrivals: runs that end inside the first block, on
  // later blocks, and across many block boundaries.
  const OpenLoopClient::RpsFn rps = [](SimTime t) {
    return std::fmod(t, 1.0) < 0.5 ? 300.0 : 700.0;
  };
  for (const bool poisson : {true, false}) {
    for (int i = 0; i < 24; ++i) {
      const SimTime begin = sim.now();
      const SimTime end = begin + 0.05 + 0.05 * i;
      OpenLoopClient::Config config;
      config.poisson = poisson;
      const SplitRng stream = rng.split("arrivals-" + std::to_string(i));
      OpenLoopClient client(mesh, c1, "svc", rps, stream, config);
      client.start(begin, end);
      sim.run_until(end + 1.0);

      const auto expected =
          reference_arrivals(rps, stream, poisson, begin, end);
      ASSERT_EQ(client.completed(), client.sent());
      std::vector<SimTime> sent;
      for (const auto& r : client.records()) sent.push_back(r.sent);
      std::sort(sent.begin(), sent.end());
      ASSERT_EQ(sent.size(), expected.size())
          << "poisson=" << poisson << " case " << i;
      for (std::size_t k = 0; k < sent.size(); ++k) {
        ASSERT_EQ(sent[k], expected[k])
            << "poisson=" << poisson << " case " << i << " arrival " << k;
      }
    }
  }
}

TEST(Timeline, AggregatesPerBucket) {
  std::vector<RequestRecord> records;
  records.push_back({0.5, 0.100, true, false, 0});
  records.push_back({0.6, 0.300, false, false, 1});
  records.push_back({1.5, 0.200, true, false, 0});
  const auto timeline = aggregate_timeline(records, 0.0, 2.0, 1.0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].count, 2u);
  EXPECT_DOUBLE_EQ(timeline[0].success_rate, 0.5);
  EXPECT_DOUBLE_EQ(timeline[0].rps, 2.0);
  EXPECT_EQ(timeline[1].count, 1u);
  EXPECT_DOUBLE_EQ(timeline[1].p50, 0.200);
}

TEST(Timeline, EmptyBucketsAreZeroed) {
  std::vector<RequestRecord> records;
  records.push_back({2.5, 0.1, true, false, 0});
  const auto timeline = aggregate_timeline(records, 0.0, 4.0, 1.0);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].count, 0u);
  EXPECT_EQ(timeline[2].count, 1u);
}

TEST(Timeline, RecordsOutsideRangeIgnored) {
  std::vector<RequestRecord> records;
  records.push_back({-1.0, 0.1, true, false, 0});
  records.push_back({10.0, 0.1, true, false, 0});
  const auto timeline = aggregate_timeline(records, 0.0, 5.0, 1.0);
  for (const auto& b : timeline) EXPECT_EQ(b.count, 0u);
}

TEST(Summaries, SeparateSuccessLatency) {
  std::vector<RequestRecord> records;
  records.push_back({0.0, 0.100, true, false, 0});
  records.push_back({0.1, 0.900, false, false, 0});
  const auto s = summarize_records(records);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.success_rate, 0.5);
  EXPECT_DOUBLE_EQ(s.success_latency.max, 0.100);
  EXPECT_DOUBLE_EQ(s.latency.max, 0.900);
}

TEST(Summaries, EmptyRecords) {
  const auto s = summarize_records(std::vector<RequestRecord>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.success_rate, 1.0);
}

}  // namespace
}  // namespace l3::workload
