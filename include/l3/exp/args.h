// The shared command-line surface of every bench binary:
//
//   [--reps N] [--fast] [--jobs N] [--json PATH] [--profile]
//   [--proxy-cost=US]
//
// Parsing is strict: numeric flags reject non-numeric, negative, trailing-
// garbage and overflowing values instead of silently mapping them to 0 the
// way raw atoi did.
//
// There is no shard flag: every cell runs one simulator, and sharding is a
// run_mega capability (MegaConfig::shards, the ledger's mega-sharded
// workload).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace l3::exp {

/// Parsed bench options.
struct BenchArgs {
  int reps = -1;     ///< -1: use the bench's default
  bool fast = false; ///< shrink durations/repetitions for smoke runs
  int jobs = 0;      ///< parallel cells; 0 = hardware concurrency
  std::string json;  ///< write the unified JSON report here; empty = off
  /// Bind a flight recorder / self-profiler to every cell: the Report JSON
  /// gains a deterministic `profile` block and a wall-time table goes to
  /// stderr. Simulation results are unchanged.
  bool profile = false;
  /// Per-request sidecar CPU cost in microseconds for the data-plane cost
  /// model (RunnerConfig::proxy_cost.cpu_per_request; DESIGN.md §16). 0
  /// (default) disables the model and reproduces the cost-free run
  /// byte-for-byte.
  int proxy_cost_us = 0;
};

/// Strict base-10 integer parse of the whole string; nullopt on empty
/// input, any non-digit (including sign), or overflow.
std::optional<long long> parse_uint(std::string_view text);

/// Parses the shared flags. On success returns the args; on any error
/// returns nullopt and sets `error` to a one-line description.
std::optional<BenchArgs> try_parse_bench_args(int argc, char** argv,
                                              std::string* error);

/// The usage string printed on parse errors.
std::string bench_usage(std::string_view argv0);

/// try_parse_bench_args, but prints usage to stderr and exits 2 on error.
BenchArgs parse_bench_args(int argc, char** argv);

}  // namespace l3::exp
