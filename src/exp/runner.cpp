#include "l3/exp/runner.h"

#include "l3/common/assert.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace l3::exp {

namespace {

CellResult run_cell(const ExperimentSpec& spec, std::size_t index) {
  CellResult result;
  result.cell = spec.cell_at(index);
  result.seed = cell_seed(spec.seed, result.cell);
  result.data = spec.cell(result.cell, result.seed);
  return result;
}

}  // namespace

int effective_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<CellResult> run_experiment(const ExperimentSpec& spec,
                                       const RunnerOptions& opts) {
  L3_EXPECTS(static_cast<bool>(spec.cell));
  L3_EXPECTS(spec.repetitions >= 1);
  const std::size_t cells = spec.cell_count();
  std::vector<CellResult> results(cells);
  const int jobs = std::min<int>(effective_jobs(opts.jobs),
                                 static_cast<int>(std::max<std::size_t>(
                                     cells, 1)));

  // Workers claim cell indices from one shared cursor. A failing cell
  // exhausts the cursor, so the other workers abandon the remaining cells.
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (std::size_t index = next.fetch_add(1); index < cells;
         index = next.fetch_add(1)) {
      try {
        results[index] = run_cell(spec, index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        next.store(cells);
        return;
      }
    }
  };

  if (jobs <= 1) {
    worker();  // inline on the calling thread
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int id = 0; id < jobs; ++id) threads.emplace_back(worker);
    for (auto& thread : threads) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

double mean_of(std::span<const CellResult> cells,
               double (*accessor)(const workload::RunResult&)) {
  if (cells.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& cell : cells) sum += accessor(cell.data.run);
  return sum / static_cast<double>(cells.size());
}

double mean_p50(std::span<const CellResult> cells) {
  return mean_of(cells, +[](const workload::RunResult& r) {
    return r.summary.latency.p50;
  });
}

double mean_p90(std::span<const CellResult> cells) {
  return mean_of(cells, +[](const workload::RunResult& r) {
    return r.summary.latency.p90;
  });
}

double mean_p99(std::span<const CellResult> cells) {
  return mean_of(cells, +[](const workload::RunResult& r) {
    return r.summary.latency.p99;
  });
}

double mean_latency(std::span<const CellResult> cells) {
  return mean_of(cells, +[](const workload::RunResult& r) {
    return r.summary.latency.mean;
  });
}

double mean_success_rate(std::span<const CellResult> cells) {
  return mean_of(cells, +[](const workload::RunResult& r) {
    return r.summary.success_rate;
  });
}

double mean_attempts(std::span<const CellResult> cells) {
  return mean_of(cells, +[](const workload::RunResult& r) {
    return r.mean_attempts;
  });
}

double mean_traffic_share(std::span<const CellResult> cells,
                          std::size_t cluster) {
  if (cells.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& cell : cells) {
    const auto& share = cell.data.run.traffic_share;
    if (cluster < share.size()) sum += share[cluster];
  }
  return sum / static_cast<double>(cells.size());
}

double mean_metric(std::span<const CellResult> cells, std::string_view name) {
  if (cells.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& cell : cells) {
    for (const auto& [key, value] : cell.data.metrics) {
      if (key == name) {
        sum += value;
        break;
      }
    }
  }
  return sum / static_cast<double>(cells.size());
}

}  // namespace l3::exp
