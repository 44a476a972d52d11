// FNV-1a digest of a RunResult, shared by the golden-trace tests
// (sim_determinism_test.cpp, dsb_golden_test.cpp).
#pragma once

#include "l3/workload/runner.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace l3::test_util {

/// FNV-1a over raw bytes.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

inline std::uint64_t mix_f64(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix_u64(h, bits);
}

/// Digests everything a RunResult exposes about the request trace: the
/// per-second timeline (count, percentiles, success rate, RPS), the overall
/// latency summary, per-cluster traffic shares and control-plane activity.
/// Any reordering of events, any changed routing decision and any shifted
/// timestamp in the pipeline perturbs at least one of these.
inline std::uint64_t trace_hash(const workload::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = mix_u64(h, r.requests);
  h = mix_u64(h, r.weight_updates);
  h = mix_f64(h, r.mean_attempts);
  h = mix_u64(h, r.summary.count);
  h = mix_f64(h, r.summary.success_rate);
  h = mix_f64(h, r.summary.latency.mean);
  h = mix_f64(h, r.summary.latency.p50);
  h = mix_f64(h, r.summary.latency.p99);
  h = mix_f64(h, r.summary.latency.max);
  h = mix_f64(h, r.summary.success_latency.mean);
  h = mix_f64(h, r.summary.success_latency.p99);
  for (const double share : r.traffic_share) h = mix_f64(h, share);
  for (const auto& bucket : r.timeline) {
    h = mix_f64(h, bucket.start);
    h = mix_u64(h, bucket.count);
    h = mix_f64(h, bucket.p50);
    h = mix_f64(h, bucket.p99);
    h = mix_f64(h, bucket.success_rate);
    h = mix_f64(h, bucket.rps);
  }
  return h;
}

}  // namespace l3::test_util
