// Tests for the open-loop client, timeline aggregation and summaries.
#include "l3/workload/client.h"

#include "l3/mesh/mesh.h"
#include "l3/workload/trace_behavior.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
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
  const auto s = summarize_records(client.records(), 0.0);
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
  const auto s = summarize_records(client.records(), 0.0);
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

TEST(RequestRecord, PackedLayoutKeepsFieldOrder) {
  static_assert(sizeof(RequestRecord) == 24);
  // Positional initializers throughout this file rely on this order.
  const RequestRecord r{1.5, 0.25, false, true, 7, 3};
  EXPECT_EQ(r.sent, 1.5);
  EXPECT_EQ(r.latency, 0.25);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.backend_cluster, 7u);
  EXPECT_EQ(r.attempts, 3);
}

TEST(RequestRecord, ClusterIdBeyondSixteenBitsIsContractViolation) {
  EXPECT_EQ(record_cluster(0), 0u);
  EXPECT_EQ(record_cluster(65535), 65535u);
  EXPECT_THROW(record_cluster(65536), ContractViolation);
  EXPECT_THROW(record_cluster(std::numeric_limits<mesh::ClusterId>::max()),
               ContractViolation);
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
  const auto s = summarize_records(records, 0.0);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.success_rate, 0.5);
  EXPECT_DOUBLE_EQ(s.success_latency.max, 0.100);
  EXPECT_DOUBLE_EQ(s.latency.max, 0.900);
}

TEST(Summaries, EmptyRecords) {
  const auto s = summarize_records(std::vector<RequestRecord>{}, 0.0);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.success_rate, 1.0);
}

// The summaries by the textbook route, kept here as the reference the
// in-place versions must match bit for bit: copy the latencies of the
// records in range out of the records, comparison-sort each sample and
// read its quantiles with percentile_sorted(). Order keys, which the
// in-place versions select on, put -0.0 below +0.0 where operator<
// leaves the two zeros unordered; latencies are never -0.0, so the two
// routes agree on every bit.
LatencySummary sorted_summary(std::vector<double> v) {
  LatencySummary s;
  s.count = v.size();
  if (v.empty()) return s;
  s.mean = mean(v);
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 0.50);
  s.p90 = percentile_sorted(v, 0.90);
  s.p95 = percentile_sorted(v, 0.95);
  s.p99 = percentile_sorted(v, 0.99);
  s.p999 = percentile_sorted(v, 0.999);
  s.max = v.back();
  return s;
}

ClientSummary reference_summary(const std::vector<RequestRecord>& records,
                                SimTime from) {
  std::vector<double> all;
  std::vector<double> ok;
  for (const auto& r : records) {
    if (r.sent < from) continue;
    all.push_back(r.latency);
    if (r.success) ok.push_back(r.latency);
  }
  ClientSummary s;
  s.count = all.size();
  if (all.empty()) return s;
  s.latency = sorted_summary(all);
  s.success_latency = sorted_summary(ok);
  s.success_rate =
      static_cast<double>(ok.size()) / static_cast<double>(all.size());
  return s;
}

std::vector<TimelineBucket> reference_timeline(
    const std::vector<RequestRecord>& records, SimTime t0, SimTime t1,
    SimDuration bucket) {
  const auto n = static_cast<std::size_t>(std::ceil((t1 - t0) / bucket));
  std::vector<std::vector<double>> latencies(n);
  std::vector<std::size_t> successes(n, 0);
  for (const auto& r : records) {
    if (r.sent < t0 || r.sent >= t1) continue;
    const auto i = static_cast<std::size_t>((r.sent - t0) / bucket);
    if (i >= n) continue;
    latencies[i].push_back(r.latency);
    if (r.success) ++successes[i];
  }
  std::vector<TimelineBucket> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& v = latencies[i];
    out[i].start = t0 + static_cast<double>(i) * bucket;
    out[i].count = v.size();
    out[i].rps = static_cast<double>(v.size()) / bucket;
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    out[i].p50 = percentile_sorted(v, 0.50);
    out[i].p99 = percentile_sorted(v, 0.99);
    out[i].success_rate =
        static_cast<double>(successes[i]) / static_cast<double>(v.size());
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const LatencySummary& got, const LatencySummary& want,
                      const std::string& what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(bits(got.mean), bits(want.mean)) << what << " mean";
  EXPECT_EQ(bits(got.p50), bits(want.p50)) << what << " p50";
  EXPECT_EQ(bits(got.p90), bits(want.p90)) << what << " p90";
  EXPECT_EQ(bits(got.p95), bits(want.p95)) << what << " p95";
  EXPECT_EQ(bits(got.p99), bits(want.p99)) << what << " p99";
  EXPECT_EQ(bits(got.p999), bits(want.p999)) << what << " p999";
  EXPECT_EQ(bits(got.max), bits(want.max)) << what << " max";
}

// Records as a client accumulates them: in completion order, so send
// times run out of order and warm-up requests (sent before the window)
// can complete after measured ones. Send times cover [-2, 12) except a
// gap at [5, 7), so some timeline buckets are empty and some records fall
// outside [t0, t1). Latencies repeat, so quantile ranks meet ties.
std::vector<RequestRecord> completion_ordered_records(std::size_t n,
                                                      double success_p,
                                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(-2.0, 10.0);
  std::bernoulli_distribution ok(success_p);
  std::vector<RequestRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    double sent = when(rng);
    if (sent >= 5.0) sent += 2.0;
    const double tail = rng() % 8 == 0 ? 9.0 : 1.0;
    const double latency = 0.001 * static_cast<double>(1 + rng() % 400) * tail;
    records.push_back({sent, latency, ok(rng), false,
                       static_cast<std::uint16_t>(rng() % 3)});
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.sent + a.latency < b.sent + b.latency;
                   });
  return records;
}

TEST(Summaries, InPlaceMatchesCopyAndSortReference) {
  struct Case {
    std::size_t n;
    double success_p;
  };
  for (const Case c : {Case{3000, 0.9}, Case{3000, 1.0}, Case{500, 0.0},
                       Case{1, 1.0}, Case{5000, 0.999}}) {
    const auto records = completion_ordered_records(c.n, c.success_p, c.n);
    // -inf keeps every record, 2.0 drops a warm-up, 20.0 is past every
    // send time: an empty window.
    for (const SimTime from :
         {-std::numeric_limits<double>::infinity(), 2.0, 20.0}) {
      const std::string what = "n=" + std::to_string(c.n) +
                               " p=" + std::to_string(c.success_p) +
                               " from=" + std::to_string(from);
      const ClientSummary got = summarize_records(records, from);
      const ClientSummary want = reference_summary(records, from);
      EXPECT_EQ(got.count, want.count) << what;
      EXPECT_EQ(bits(got.success_rate), bits(want.success_rate)) << what;
      expect_same_bits(got.latency, want.latency, what + " all");
      expect_same_bits(got.success_latency, want.success_latency,
                       what + " ok");
    }
  }
}

TEST(Timeline, InPlaceMatchesCopyAndSortReference) {
  struct Window {
    SimTime t0;
    SimTime t1;
    SimDuration bucket;
  };
  const auto records = completion_ordered_records(4000, 0.9, 77);
  // Whole-second buckets over the gap at [5, 7); uneven 0.7 s buckets; a
  // window that starts before the first send; an empty window past the
  // last send.
  for (const Window w : {Window{2.0, 10.0, 1.0}, Window{0.0, 12.0, 0.7},
                         Window{-5.0, 3.0, 1.0}, Window{20.0, 25.0, 1.0}}) {
    const auto got = aggregate_timeline(records, w.t0, w.t1, w.bucket);
    const auto want = reference_timeline(records, w.t0, w.t1, w.bucket);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string what = "t0=" + std::to_string(w.t0) +
                               " bucket " + std::to_string(i);
      EXPECT_EQ(bits(got[i].start), bits(want[i].start)) << what;
      EXPECT_EQ(got[i].count, want[i].count) << what;
      EXPECT_EQ(bits(got[i].p50), bits(want[i].p50)) << what;
      EXPECT_EQ(bits(got[i].p99), bits(want[i].p99)) << what;
      EXPECT_EQ(bits(got[i].success_rate), bits(want[i].success_rate))
          << what;
      EXPECT_EQ(bits(got[i].rps), bits(want[i].rps)) << what;
    }
  }
}

}  // namespace
}  // namespace l3::workload
