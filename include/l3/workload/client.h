// The load generator: an open-loop (arrival-rate-driven) HTTP client in the
// style of wrk2 — arrivals are scheduled from the target rate alone, never
// from response completions, so the recorded latencies are free of
// coordinated omission. Requests can be sent either through the mesh's
// TrafficSplit routing (the trace benchmarks) or directly to the
// cluster-local deployment (the DeathStarBench client, which always talks
// to its local frontend, §5.1).
#pragma once

#include "l3/common/assert.h"
#include "l3/common/rng.h"
#include "l3/common/stats.h"
#include "l3/common/time.h"
#include "l3/mesh/mesh.h"
#include "l3/trace/span.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace l3::workload {

/// One completed (or timed-out) request as the client saw it. When client
/// retries are enabled, `latency` spans first send to final response and
/// `success`/`backend_cluster` describe the last attempt.
///
/// A client keeps one record per request (over a million in mega), so the
/// layout is packed to 24 bytes: the cluster id is narrowed to 16 bits
/// (written through record_cluster(), which range-checks it) and fills what
/// would otherwise be padding. Tests build records with positional
/// initializers, so the field order is part of the interface.
struct RequestRecord {
  SimTime sent = 0.0;
  SimDuration latency = 0.0;
  bool success = true;
  bool timed_out = false;
  std::uint16_t backend_cluster = 0;
  /// Number of attempts made (1 = no retry needed).
  int attempts = 1;
};
static_assert(sizeof(RequestRecord) == 24);

/// `cluster` narrowed to RequestRecord::backend_cluster. Throws
/// ContractViolation when the id does not fit in 16 bits.
inline std::uint16_t record_cluster(mesh::ClusterId cluster) {
  L3_EXPECTS(cluster <= std::numeric_limits<std::uint16_t>::max());
  return static_cast<std::uint16_t>(cluster);
}

/// How the client reaches the target service.
enum class CallMode {
  kViaSplit,     ///< through the source cluster's proxy + TrafficSplit
  kLocalDirect,  ///< straight to the local deployment (DSB frontend style)
};

/// OpenLoopClient configuration.
struct ClientConfig {
  CallMode mode = CallMode::kViaSplit;
  /// Poisson arrivals instead of deterministic equal spacing.
  bool poisson = false;
  /// Client-side retries on failure (§5.2.1: L3's latency estimate assumes
  /// clients retry failed requests). 0 reproduces the paper's benchmark
  /// setup, which did not retry.
  int max_retries = 0;
  /// Pause before a retry is issued (the client's failure-detection +
  /// backoff time).
  SimDuration retry_backoff = 0.0;
};

/// Open-loop constant-throughput client.
class OpenLoopClient {
 public:
  /// Target request rate (RPS) as a function of sim time.
  using RpsFn = std::function<double(SimTime)>;

  /// Kept as a nested alias for readability at call sites.
  using Config = ClientConfig;

  OpenLoopClient(mesh::Mesh& mesh, mesh::ClusterId source,
                 std::string service, RpsFn rps, SplitRng rng,
                 Config config = {});

  /// Schedules request arrivals over [begin, end) of sim time. Responses
  /// arriving after `end` are still recorded (the run loop must extend a
  /// little past `end` to drain them).
  void start(SimTime begin, SimTime end);

  const std::vector<RequestRecord>& records() const { return records_; }

  /// Records sent at or after `t` (e.g. to drop the warm-up).
  std::vector<RequestRecord> records_after(SimTime t) const;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t completed() const { return records_.size(); }

 private:
  void schedule_next();
  /// Runs the gap recurrence forward from `from`, filling arrival_block_
  /// with up to one block of future arrival times (stops at end_).
  void refill_arrivals(SimTime from);
  void fire();
  void fire_local_direct();
  void send_attempt(SimTime first_sent, int attempt, trace::SpanContext root);
  /// Finalizes the root span of a traced request (no-op when unsampled).
  void end_trace(trace::SpanContext root, bool success, bool timed_out);

  mesh::Mesh& mesh_;
  mesh::ClusterId source_;
  std::string service_;
  RpsFn rps_;
  SplitRng rng_;
  Config config_;
  SimTime end_ = 0.0;
  std::uint64_t sent_ = 0;
  std::vector<SimTime> arrival_block_;  ///< pre-generated arrival times
  std::size_t arrival_next_ = 0;        ///< next unscheduled block entry
  bool arrivals_done_ = false;          ///< recurrence crossed end_; stop
  std::vector<RequestRecord> records_;
  /// Resolved on first use (the mesh's routing tables are map lookups; the
  /// client sends every request to the same target).
  mesh::Proxy* proxy_ = nullptr;
  mesh::ServiceDeployment* local_deployment_ = nullptr;
};

/// One-second (by default) aggregation bucket of client records — the
/// "percentile latencies with one-second granularity" the paper's
/// coordinator retrieves (§5.1).
struct TimelineBucket {
  SimTime start = 0.0;
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double success_rate = 1.0;
  double rps = 0.0;
};

/// Buckets records into fixed windows over [t0, t1) by send time; records
/// outside it are skipped. Each bucket's p50/p99 is selected on the order
/// keys of its latencies, counting-sorted by bucket into one flat buffer.
std::vector<TimelineBucket> aggregate_timeline(
    std::span<const RequestRecord> records, SimTime t0, SimTime t1,
    SimDuration bucket = 1.0);

/// Latency summary plus success rate over a record span.
struct ClientSummary {
  LatencySummary latency;  ///< over ALL requests (success + failure)
  LatencySummary success_latency;
  double success_rate = 1.0;
  std::size_t count = 0;
};

/// Summarizes the records sent at or after `from` (e.g. past the warm-up),
/// in place: one pass filters them and builds the order keys of the all
/// and success samples, whose quantiles are then selected, not sorted.
ClientSummary summarize_records(std::span<const RequestRecord> records,
                                SimTime from);

}  // namespace l3::workload
