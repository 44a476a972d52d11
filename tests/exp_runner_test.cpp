// Tests for the experiment harness: grid indexing, coordinate-derived
// seeds, the jobs-invariance guarantee (identical serialized output for any
// worker count) and error propagation out of worker threads.
#include "l3/exp/report.h"
#include "l3/exp/runner.h"
#include "l3/exp/spec.h"
#include "l3/workload/scenarios.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>

namespace l3::exp {
namespace {

ExperimentSpec small_grid() {
  workload::RunnerConfig config;
  config.duration = 30.0;
  return scenario_grid(
      "test-grid", {workload::make_scenario1()},
      {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kL3}, config,
      2);
}

std::string serialize(const ExperimentSpec& spec,
                      const std::vector<CellResult>& results) {
  Report report("test");
  report.add_grid(spec, results);
  std::ostringstream out;
  report.write(out);
  return out.str();
}

TEST(ExperimentSpecTest, IndexOfAndCellAtRoundTrip) {
  ExperimentSpec spec;
  spec.scenarios = {"a", "b", "c"};
  spec.policies = {"x", "y"};
  spec.variants = {"u", "v"};
  spec.repetitions = 3;
  std::set<std::size_t> seen;
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::size_t v = 0; v < 2; ++v) {
        for (int r = 0; r < 3; ++r) {
          const Cell cell{s, p, v, r};
          const std::size_t index = spec.index_of(cell);
          EXPECT_LT(index, spec.cell_count());
          EXPECT_TRUE(seen.insert(index).second) << "index collision";
          const Cell back = spec.cell_at(index);
          EXPECT_EQ(back.scenario, s);
          EXPECT_EQ(back.policy, p);
          EXPECT_EQ(back.variant, v);
          EXPECT_EQ(back.rep, r);
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), spec.cell_count());
}

TEST(ExperimentSpecTest, RepetitionsOfOneCoordinateAreContiguous) {
  ExperimentSpec spec;
  spec.scenarios = {"a", "b"};
  spec.policies = {"x", "y"};
  spec.repetitions = 4;
  const std::size_t first = spec.index_of(Cell{1, 1, 0, 0});
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(spec.index_of(Cell{1, 1, 0, r}),
              first + static_cast<std::size_t>(r));
  }
}

TEST(CellSeedTest, DistinctCoordinatesGetDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t v = 0; v < 3; ++v) {
        for (int r = 0; r < 3; ++r) {
          seeds.insert(cell_seed(42, Cell{s, p, v, r}));
        }
      }
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 4u * 3u * 3u);
  // Transposed coordinates must not collide (the single-tag encoding is
  // order-sensitive, unlike chained XOR-based splits).
  EXPECT_NE(cell_seed(42, Cell{1, 2, 0, 0}), cell_seed(42, Cell{2, 1, 0, 0}));
}

TEST(CellSeedTest, DependsOnExperimentSeed) {
  const Cell cell{1, 1, 0, 1};
  EXPECT_NE(cell_seed(42, cell), cell_seed(43, cell));
}

TEST(ExperimentRunnerTest, ResultsArriveInGridOrderWithDerivedSeeds) {
  ExperimentSpec spec;
  spec.name = "order";
  spec.scenarios = {"s0", "s1"};
  spec.policies = {"p0", "p1", "p2"};
  spec.repetitions = 2;
  spec.seed = 7;
  spec.cell = [](const Cell& cell, std::uint64_t seed) -> CellData {
    CellData data;
    data.metrics = {{"seed_lo", static_cast<double>(seed & 0xffff)},
                    {"scenario", static_cast<double>(cell.scenario)}};
    return data;
  };
  const auto results = run_experiment(spec, {.jobs = 3});
  ASSERT_EQ(results.size(), spec.cell_count());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Cell expected = spec.cell_at(i);
    EXPECT_EQ(results[i].cell.scenario, expected.scenario);
    EXPECT_EQ(results[i].cell.policy, expected.policy);
    EXPECT_EQ(results[i].cell.rep, expected.rep);
    EXPECT_EQ(results[i].seed, cell_seed(7, expected));
  }
}

TEST(ExperimentRunnerTest, JobsCountDoesNotChangeSerializedResults) {
  const auto spec = small_grid();
  const auto serial = serialize(spec, run_experiment(spec, {.jobs = 1}));
  const auto parallel = serialize(spec, run_experiment(spec, {.jobs = 4}));
  EXPECT_EQ(serial, parallel);
}

TEST(ExperimentRunnerTest, MoreJobsThanCellsWorks) {
  ExperimentSpec spec;
  spec.name = "tiny";
  spec.repetitions = 2;  // 2 cells, 16 workers
  std::atomic<int> calls{0};
  spec.cell = [&calls](const Cell&, std::uint64_t) -> CellData {
    calls.fetch_add(1);
    return {};
  };
  const auto results = run_experiment(spec, {.jobs = 16});
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(calls.load(), 2);
}

TEST(ExperimentRunnerTest, CellExceptionPropagatesFromWorkers) {
  ExperimentSpec spec;
  spec.name = "boom";
  spec.scenarios = {"a", "b", "c", "d"};
  spec.repetitions = 2;
  spec.cell = [](const Cell& cell, std::uint64_t) -> CellData {
    if (cell.scenario == 2 && cell.rep == 1) {
      throw std::runtime_error("cell failed");
    }
    return {};
  };
  EXPECT_THROW(run_experiment(spec, {.jobs = 4}), std::runtime_error);
  EXPECT_THROW(run_experiment(spec, {.jobs = 1}), std::runtime_error);
}

TEST(ExperimentRunnerTest, EveryCellRunsExactlyOnce) {
  // A cell run twice would rewrite its own slot and go unnoticed in the
  // results, so count the invocations per cell.
  for (const int jobs : {1, 2, 3, 8}) {
    for (const std::size_t cells : {0u, 1u, 7u, 64u}) {
      ExperimentSpec spec;
      spec.name = "once";
      spec.scenarios.assign(cells, "s");
      std::vector<std::atomic<int>> calls(cells);
      spec.cell = [&calls](const Cell& cell, std::uint64_t) -> CellData {
        calls[cell.scenario].fetch_add(1);
        CellData data;
        data.metrics = {{"scenario", static_cast<double>(cell.scenario)}};
        return data;
      };
      const auto results = run_experiment(spec, {.jobs = jobs});
      ASSERT_EQ(results.size(), cells);
      for (std::size_t i = 0; i < cells; ++i) {
        EXPECT_EQ(calls[i].load(), 1)
            << "cell " << i << " of " << cells << ", jobs " << jobs;
        EXPECT_EQ(results[i].cell.scenario, i);
        EXPECT_EQ(mean_metric({&results[i], 1}, "scenario"),
                  static_cast<double>(i));
      }
    }
  }
}

TEST(ExperimentRunnerTest, EffectiveJobsResolvesNonPositiveToHardware) {
  EXPECT_GE(effective_jobs(0), 1);
  EXPECT_GE(effective_jobs(-3), 1);
  EXPECT_EQ(effective_jobs(5), 5);
}

TEST(ResultGridTest, AtReturnsTheRepetitionsOfOneCoordinate) {
  ExperimentSpec spec;
  spec.scenarios = {"s0", "s1"};
  spec.policies = {"p0", "p1"};
  spec.repetitions = 3;
  spec.cell = [](const Cell& cell, std::uint64_t) -> CellData {
    CellData data;
    data.metrics = {
        {"tag", static_cast<double>(cell.scenario * 100 + cell.policy * 10 +
                                    static_cast<std::size_t>(cell.rep))}};
    return data;
  };
  const auto results = run_experiment(spec, {.jobs = 2});
  const ResultGrid grid(spec, results);
  const auto cells = grid.at(1, 0);
  ASSERT_EQ(cells.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cells[static_cast<std::size_t>(r)].data.metrics[0].second,
              100.0 + r);
  }
  EXPECT_DOUBLE_EQ(mean_metric(cells, "tag"), 101.0);
  EXPECT_DOUBLE_EQ(mean_metric(cells, "absent"), 0.0);
}

}  // namespace
}  // namespace l3::exp
