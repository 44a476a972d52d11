// Benchmark coordinator for the DeathStarBench hotel-reservation experiment
// (Fig. 9): three clusters, the full application deployed in each, a
// constant-throughput client at the cluster-1 frontend, one L3 controller
// per cluster (production layout, §3), and rotating per-cluster performance
// disturbances supplying the heterogeneity the algorithms compete on.
// Like the trace runner (l3/workload/runner.h), a run is one plain
// Simulator: the clusters are RNG-coupled, and sharding is a run_mega
// capability (MegaConfig::shards, the ledger's mega-sharded workload).
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

  // Test environment (same three-region setup as the trace runner).
  SimDuration wan_one_way = 0.005;
  double wan_jitter_frac = 0.10;
  SimDuration wan_flap_amp = 0.001;
  SimDuration local_one_way = 0.0005;
  SimDuration scrape_interval = 5.0;
  SimDuration propagation_delay = 0.0;
  /// Bind an obs::Recorder for the run (see workload::RunnerConfig::profile).
  bool profile = false;

  HotelAppConfig app;
  PerformanceDisturber::Config disturbance;

  core::ControllerConfig controller;
  lb::L3PolicyConfig l3;
  lb::C3PolicyConfig c3;
};

/// Runs the hotel-reservation application under one policy.
workload::RunResult run_hotel_reservation(workload::PolicyKind kind,
                                          const DsbRunnerConfig& config = {});

/// Runs the social-network application under one policy — the extension
/// workload; `config.app` is ignored, `social` configures the application.
workload::RunResult run_social_network(workload::PolicyKind kind,
                                       const DsbRunnerConfig& config = {},
                                       const SocialAppConfig& social = {});

}  // namespace l3::dsb
