// Shared-nothing parallel execution of an ExperimentSpec. Each cell builds
// its own Simulator / mesh / registry / tracer inside the cell function;
// the runner's workers only claim cell indices from one shared atomic
// cursor and write results into their grid-order slots — so the collected
// vector (and anything serialized from it) is byte-identical for every
// `jobs` value, including 1.
#pragma once

#include "l3/exp/spec.h"

#include <cstdint>
#include <span>
#include <vector>

namespace l3::exp {

/// One completed cell: coordinates, the seed it ran with, and its data.
struct CellResult {
  Cell cell;
  std::uint64_t seed = 0;
  CellData data;
};

struct RunnerOptions {
  /// Worker threads; <= 0 means hardware concurrency.
  int jobs = 0;
};

/// Resolves a --jobs value: <= 0 becomes hardware concurrency (at least 1).
int effective_jobs(int jobs);

/// Runs every cell of the grid and returns results in grid order
/// (spec.index_of). Cells run concurrently on `opts.jobs` workers; with
/// jobs = 1 everything runs inline on the calling thread. An exception
/// thrown by a cell is rethrown here after the pool drains.
std::vector<CellResult> run_experiment(const ExperimentSpec& spec,
                                       const RunnerOptions& opts = {});

/// Grid-shaped view over run_experiment() results: the repetitions of one
/// (scenario, policy, variant) coordinate as a contiguous span.
class ResultGrid {
 public:
  ResultGrid(const ExperimentSpec& spec, std::span<const CellResult> results)
      : spec_(spec), results_(results) {}

  std::span<const CellResult> at(std::size_t scenario, std::size_t policy,
                                 std::size_t variant = 0) const {
    const std::size_t first =
        spec_.index_of(Cell{scenario, policy, variant, 0});
    return results_.subspan(first,
                            static_cast<std::size_t>(spec_.repetitions));
  }

 private:
  const ExperimentSpec& spec_;
  std::span<const CellResult> results_;
};

// Mean-over-repetitions helpers (the aggregations the figure tables print).
double mean_of(std::span<const CellResult> cells,
               double (*accessor)(const workload::RunResult&));
double mean_p50(std::span<const CellResult> cells);
double mean_p90(std::span<const CellResult> cells);
double mean_p99(std::span<const CellResult> cells);
double mean_latency(std::span<const CellResult> cells);
double mean_success_rate(std::span<const CellResult> cells);
double mean_attempts(std::span<const CellResult> cells);
/// Mean traffic share of one backend cluster.
double mean_traffic_share(std::span<const CellResult> cells,
                          std::size_t cluster);
/// Mean of a named cell metric (0.0 when absent).
double mean_metric(std::span<const CellResult> cells, std::string_view name);

}  // namespace l3::exp
