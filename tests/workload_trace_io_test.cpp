// Tests for scenario-trace CSV import/export.
#include "l3/workload/trace_io.h"

#include "l3/common/assert.h"
#include "l3/workload/scenarios.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

namespace l3::workload {
namespace {

TEST(TraceIo, RoundTripsGeneratedScenario) {
  const auto original = make_scenario2(7);
  std::stringstream buffer;
  save_trace_csv(original, buffer);
  const auto loaded = load_trace_csv(buffer);

  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(loaded.cluster_count(), original.cluster_count());
  EXPECT_DOUBLE_EQ(loaded.duration(), original.duration());
  EXPECT_EQ(loaded.steps(), original.steps());
  for (std::size_t c = 0; c < original.cluster_count(); ++c) {
    for (std::size_t s = 0; s < original.steps(); ++s) {
      EXPECT_NEAR(loaded.at(c, s).median, original.at(c, s).median, 1e-9);
      EXPECT_NEAR(loaded.at(c, s).p99, original.at(c, s).p99, 1e-9);
      EXPECT_NEAR(loaded.at(c, s).success_rate,
                  original.at(c, s).success_rate, 1e-9);
    }
  }
  for (std::size_t s = 0; s < original.steps(); ++s) {
    const double t = static_cast<double>(s);
    EXPECT_NEAR(loaded.rps_at(t), original.rps_at(t), 1e-6);
  }
}

TEST(TraceIo, HeaderContainsMetadata) {
  const auto trace = make_scenario5(1);
  std::stringstream buffer;
  save_trace_csv(trace, buffer);
  std::string first;
  std::getline(buffer, first);
  EXPECT_NE(first.find("scenario-5"), std::string::npos);
  EXPECT_NE(first.find("clusters=3"), std::string::npos);
  EXPECT_NE(first.find("duration=600"), std::string::npos);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream garbage("not a trace\n1,2,3\n");
  EXPECT_THROW(load_trace_csv(garbage), ContractViolation);
}

TEST(TraceIo, RejectsWrongColumnCount) {
  std::stringstream bad(
      "# scenario x clusters=2 duration=2 dt=1\n"
      "t,rps,c0_median,c0_p99,c0_success,c1_median,c1_p99,c1_success\n"
      "0,100,0.01,0.05,1.0\n");  // missing cluster-1 columns
  EXPECT_THROW(load_trace_csv(bad), ContractViolation);
}

/// A one-cluster, one-step trace whose header carries `clusters` and whose
/// only data row is `row`.
std::string one_step_csv(const std::string& clusters, const std::string& row) {
  return "# scenario x clusters=" + clusters + " duration=1 dt=1\n" +
         "t,rps,c0_median,c0_p99,c0_success\n" + row + "\n";
}

TEST(TraceIo, AcceptsBoundaryValues) {
  std::stringstream ok(one_step_csv("1", "0,100,0,0,0"));
  EXPECT_EQ(load_trace_csv(ok).at(0, 0).success_rate, 0.0);
  std::stringstream one(one_step_csv("1", "0,100,0.01,0.05,1"));
  EXPECT_EQ(load_trace_csv(one).at(0, 0).success_rate, 1.0);
}

TEST(TraceIo, RejectsMalformedFields) {
  // Each case must raise ContractViolation, never a std exception from a
  // number parser and never load silently.
  const std::pair<const char*, std::string> cases[] = {
      {"non-numeric rps", one_step_csv("1", "0,abc,0.01,0.05,1")},
      {"overflowing rps", one_step_csv("1", "0,1e999,0.01,0.05,1")},
      {"non-numeric cluster count", one_step_csv("abc", "0,100,0.01,0.05,1")},
      {"negative cluster count", one_step_csv("-3", "0,100,0.01,0.05,1")},
      {"trailing garbage", one_step_csv("1", "0,100,0.01x,0.05,1")},
      {"negative success rate", one_step_csv("1", "0,100,0.01,0.05,-3")},
      {"success rate above one", one_step_csv("1", "0,100,0.01,0.05,1.5")},
      {"negative median", one_step_csv("1", "0,100,-0.01,0.05,1")},
      {"negative p99", one_step_csv("1", "0,100,0.01,-0.05,1")},
      {"negative rps", one_step_csv("1", "0,-100,0.01,0.05,1")},
      {"infinite latency", one_step_csv("1", "0,100,inf,0.05,1")},
      {"NaN success rate", one_step_csv("1", "0,100,0.01,0.05,nan")},
      {"NaN duration",
       "# scenario x clusters=1 duration=nan dt=1\n"
       "t,rps,c0_median,c0_p99,c0_success\n0,100,0.01,0.05,1\n"},
      // Sizes the file cannot back: must be refused before any allocation.
      {"huge cluster count",
       one_step_csv("18446744073709551615", "0,100,0.01,0.05,1")},
      {"more steps than rows",
       "# scenario x clusters=1 duration=1e12 dt=1\n"
       "t,rps,c0_median,c0_p99,c0_success\n0,100,0.01,0.05,1\n"},
      {"step count beyond size_t",
       "# scenario x clusters=1 duration=1e300 dt=1e-300\n"
       "t,rps,c0_median,c0_p99,c0_success\n0,100,0.01,0.05,1\n"},
  };
  for (const auto& [label, csv] : cases) {
    std::stringstream in(csv);
    EXPECT_THROW(load_trace_csv(in), ContractViolation) << label;
  }
}

TEST(TraceIo, RejectsTruncatedFile) {
  const auto trace = make_scenario5(1);
  std::stringstream buffer;
  save_trace_csv(trace, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  // Cut mid-file: either a malformed row or too few steps must throw.
  std::stringstream truncated(text);
  EXPECT_THROW(load_trace_csv(truncated), ContractViolation);
}

TEST(TraceIo, FileRoundTrip) {
  const auto original = make_failure2(3);
  const std::string path = "/tmp/l3_trace_io_test.csv";
  save_trace_csv(original, path);
  const auto loaded = load_trace_csv(path);
  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_NEAR(loaded.at(2, 599).success_rate,
              original.at(2, 599).success_rate, 1e-9);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv(std::string("/nonexistent/path.csv")),
               ContractViolation);
}

}  // namespace
}  // namespace l3::workload
