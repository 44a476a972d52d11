// Benchmark coordinator for the DeathStarBench hotel-reservation experiment
// (Fig. 9): the full application deployed in each cluster of the paper's
// three-cluster testbed (workload::Testbed, l3/workload/runner.h), a
// constant-throughput client at the cluster-1 frontend, one L3 controller
// per cluster (production layout, §3) with the default controller and
// policy settings, and rotating per-cluster performance disturbances
// supplying the heterogeneity the algorithms compete on.
#pragma once

#include "l3/dsb/hotel_app.h"
#include "l3/dsb/social_app.h"
#include "l3/workload/runner.h"

#include <cstdint>

namespace l3::dsb {

/// Configuration of one hotel-reservation run.
struct DsbRunnerConfig {
  std::uint64_t seed = 42;
  SimDuration warmup = 60.0;
  SimDuration duration = 600.0;  ///< paper: 20 min; default 10 for speed
  double rps = 200.0;            ///< §5.3.1: experiments run at 200 RPS
  /// Bind an obs::Recorder for the run (see workload::RunnerConfig::profile).
  bool profile = false;

  PerformanceDisturber::Config disturbance;
};

/// Runs the hotel-reservation application under one policy.
workload::RunResult run_hotel_reservation(workload::PolicyKind kind,
                                          const DsbRunnerConfig& config = {});

/// Runs the social-network application under one policy — the extension
/// workload; `social` configures the application.
workload::RunResult run_social_network(workload::PolicyKind kind,
                                       const DsbRunnerConfig& config = {},
                                       const SocialAppConfig& social = {});

}  // namespace l3::dsb
