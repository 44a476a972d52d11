#include "l3/workload/client.h"

#include "l3/common/assert.h"
#include "l3/trace/tracer.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace l3::workload {

namespace {
/// Arrival times pre-generated per refill, so the gap recurrence (rate
/// lookup + exponential draw) runs as a tight loop instead of being
/// re-entered once per dispatched event. Any block size yields the same
/// arrivals: the recurrence consumes the same draws in the same order.
constexpr std::size_t kArrivalBlock = 64;
}  // namespace

OpenLoopClient::OpenLoopClient(mesh::Mesh& mesh, mesh::ClusterId source,
                               std::string service, RpsFn rps, SplitRng rng,
                               Config config)
    : mesh_(mesh),
      source_(source),
      service_(std::move(service)),
      rps_(std::move(rps)),
      rng_(rng),
      config_(config) {
  L3_EXPECTS(rps_ != nullptr);
}

void OpenLoopClient::start(SimTime begin, SimTime end) {
  L3_EXPECTS(end > begin);
  L3_EXPECTS(begin >= mesh_.simulator().now());
  end_ = end;
  records_.reserve(static_cast<std::size_t>(
      std::min(5e6, (end - begin) * std::max(1.0, rps_(begin)) * 1.5)));
  mesh_.simulator().schedule_at(begin, [this] {
    fire();
    schedule_next();
  });
}

void OpenLoopClient::schedule_next() {
  auto& sim = mesh_.simulator();
  if (arrival_next_ >= arrival_block_.size()) {
    refill_arrivals(sim.now());
    if (arrival_block_.empty()) return;  // recurrence crossed end_
  }
  sim.schedule_at(arrival_block_[arrival_next_++], [this] {
    fire();
    schedule_next();
  });
}

void OpenLoopClient::refill_arrivals(SimTime from) {
  arrival_block_.clear();
  arrival_next_ = 0;
  // Once a drawn arrival crosses end_, the recurrence is over for good.
  // Without this latch a partial block would end with the crossing draw
  // discarded and the NEXT refill would re-sample it — one extra stream
  // draw per block boundary, and occasionally an extra arrival that the
  // per-event recurrence (which stops at its first crossing draw) never
  // produces.
  if (arrivals_done_) return;
  // Pre-generating a block is draw-order-legal exactly when the recurrence
  // below is the only consumer of this client's stream between arrivals:
  // always true without poisson (no draws at all), and true in kViaSplit
  // mode (the proxy picks and WAN transits draw from their own streams).
  // In poisson + kLocalDirect mode fire() draws WAN samples from rng_
  // between gap draws, so the block degenerates to a single arrival and
  // the draw interleaving stays exactly as the per-event loop produced it.
  const bool interleaved_draws =
      config_.poisson && config_.mode == CallMode::kLocalDirect;
  const std::size_t block = interleaved_draws ? 1 : kArrivalBlock;
  SimTime t = from;
  for (std::size_t i = 0; i < block; ++i) {
    // Identical arithmetic to the old per-event step: `t` is exactly the
    // value schedule_at stored, so rate lookups and gap sums reproduce the
    // per-event FP results bit for bit.
    const double rate = std::max(0.1, rps_(t));
    const SimDuration gap =
        config_.poisson ? rng_.exponential(rate) : 1.0 / rate;
    t += gap;
    if (t >= end_) {
      arrivals_done_ = true;
      break;
    }
    arrival_block_.push_back(t);
  }
}

void OpenLoopClient::fire() {
  ++sent_;
  const SimTime sent_at = mesh_.simulator().now();
  if (config_.mode == CallMode::kLocalDirect) {
    fire_local_direct();
    return;
  }
  // Root span for the whole request including retries (the client's view).
  // Unsampled (zero) context when no tracer is attached or sampling says no.
  trace::SpanContext root{};
  if (trace::Tracer* tracer = mesh_.tracer()) {
    root = tracer->start_trace(service_, mesh_.cluster_names()[source_],
                               service_);
  }
  send_attempt(sent_at, 1, root);
}

void OpenLoopClient::end_trace(trace::SpanContext root, bool success,
                               bool timed_out) {
  if (!root.sampled()) return;
  trace::Tracer* tracer = mesh_.tracer();
  if (tracer == nullptr) return;
  tracer->end_trace(root, timed_out  ? trace::SpanStatus::kTimeout
                          : success ? trace::SpanStatus::kOk
                                    : trace::SpanStatus::kError);
}

void OpenLoopClient::send_attempt(SimTime first_sent, int attempt,
                                  trace::SpanContext root) {
  // The proxy is resolved once; every attempt goes to the same
  // (source, service) pair, so the per-request map lookup is pure overhead.
  if (proxy_ == nullptr) proxy_ = &mesh_.proxy(source_, service_);
  proxy_->send(/*depth=*/0, root,
               [this, first_sent, attempt, root](const mesh::Response& response) {
                 if (!response.success && attempt <= config_.max_retries) {
                   mesh_.simulator().schedule_after(
                       config_.retry_backoff, [this, first_sent, attempt, root] {
                         send_attempt(first_sent, attempt + 1, root);
                       });
                   return;
                 }
                 end_trace(root, response.success, response.timed_out);
                 records_.push_back(RequestRecord{
                     first_sent, mesh_.simulator().now() - first_sent,
                     response.success, response.timed_out,
                     response.backend_cluster, attempt});
               });
}

void OpenLoopClient::fire_local_direct() {
  // Straight to the local deployment: local network hop out and back, no
  // TrafficSplit, no proxy metrics (the client is not part of the mesh's
  // east-west traffic).
  auto& sim = mesh_.simulator();
  const SimTime sent_at = sim.now();
  if (local_deployment_ == nullptr) {
    local_deployment_ = mesh_.find_deployment(service_, source_);
    L3_EXPECTS(local_deployment_ != nullptr);
  }
  mesh::ServiceDeployment* deployment = local_deployment_;
  trace::SpanContext root{};
  if (trace::Tracer* tracer = mesh_.tracer()) {
    root = tracer->start_trace(service_, mesh_.cluster_names()[source_],
                               service_);
  }
  const SimDuration out = mesh_.wan().sample(source_, source_, sim.now(), rng_);
  sim.schedule_after(out, [this, deployment, sent_at, root] {
    deployment->handle(/*depth=*/1, root, [this, sent_at, root](
                                              const mesh::Outcome& outcome) {
      auto& sim2 = mesh_.simulator();
      const SimDuration back =
          mesh_.wan().sample(source_, source_, sim2.now(), rng_);
      sim2.schedule_after(back, [this, sent_at, root, outcome] {
        end_trace(root, outcome.success, false);
        records_.push_back(RequestRecord{sent_at,
                                         mesh_.simulator().now() - sent_at,
                                         outcome.success, false, source_});
      });
    });
  });
}

std::vector<RequestRecord> OpenLoopClient::records_after(SimTime t) const {
  std::vector<RequestRecord> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    if (r.sent >= t) out.push_back(r);
  }
  return out;
}

std::vector<TimelineBucket> aggregate_timeline(
    std::span<const RequestRecord> records, SimTime t0, SimTime t1,
    SimDuration bucket) {
  L3_EXPECTS(t1 > t0 && bucket > 0.0);
  const auto n = static_cast<std::size_t>(std::ceil((t1 - t0) / bucket));
  // Two passes: count first so each bucket's latency vector is allocated
  // exactly once, then fill. Records arrive roughly in bucket order, so
  // both passes stream sequentially.
  std::vector<std::vector<double>> latencies(n);
  std::vector<std::size_t> successes(n, 0);
  std::vector<std::size_t> counts(n, 0);
  for (const auto& r : records) {
    if (r.sent < t0 || r.sent >= t1) continue;
    const auto i = static_cast<std::size_t>((r.sent - t0) / bucket);
    if (i >= n) continue;
    counts[i] += 1;
    if (r.success) successes[i] += 1;
  }
  for (std::size_t i = 0; i < n; ++i) latencies[i].reserve(counts[i]);
  for (const auto& r : records) {
    if (r.sent < t0 || r.sent >= t1) continue;
    const auto i = static_cast<std::size_t>((r.sent - t0) / bucket);
    if (i >= n) continue;
    latencies[i].push_back(r.latency);
  }
  std::vector<TimelineBucket> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].start = t0 + static_cast<double>(i) * bucket;
    out[i].count = counts[i];
    out[i].rps = static_cast<double>(counts[i]) / bucket;
    if (counts[i] > 0) {
      // Select the two order statistics each quantile interpolates instead
      // of sorting the bucket: same values, same interpolation, so the
      // result is bit-identical (the golden traces hash these).
      out[i].p50 = percentile_select(latencies[i], 0.50);
      out[i].p99 = percentile_select(latencies[i], 0.99);
      out[i].success_rate =
          static_cast<double>(successes[i]) / static_cast<double>(counts[i]);
    }
  }
  return out;
}

ClientSummary summarize_records(std::span<const RequestRecord> records) {
  ClientSummary s;
  s.count = records.size();
  if (records.empty()) return s;
  std::vector<double> all;
  all.reserve(records.size());
  std::size_t successes = 0;
  for (const auto& r : records) {
    all.push_back(r.latency);
    if (r.success) ++successes;
  }
  s.latency = summarize(all);
  if (successes == records.size()) {
    // Every request succeeded: the success sample is `all` again.
    s.success_latency = s.latency;
  } else {
    std::vector<double> ok;
    ok.reserve(successes);
    for (const auto& r : records) {
      if (r.success) ok.push_back(r.latency);
    }
    s.success_latency = summarize(ok);
  }
  s.success_rate =
      static_cast<double>(successes) / static_cast<double>(records.size());
  return s;
}

}  // namespace l3::workload
