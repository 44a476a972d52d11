// Golden-trace tests for the DeathStarBench call graph (l3::dsb).
//
// Same contract as sim_determinism_test.cpp, applied to the only multi-hop
// workload: a fixed (application, policy, seed) reproduces the identical
// RunResult, digested with the same FNV-1a trace_hash. The disturbance
// period is shortened so the load factors change several times inside the
// window, covering the behaviors' cached load-factor path.
//
// The constants were recorded immediately before the DSB behaviors moved
// onto pooled stage frames with pre-resolved call targets; that rewrite
// keeps RNG draw order and event count exactly, so they must not move.
// They were re-recorded once when RunResult::weight_updates became the
// pushes that changed a split (the sum of the splits' generations) instead
// of every push, and the DSB runner started filling traffic_share (the
// local frontend's [1, 0, 0], was all zeros): a field-by-field dump of each
// run before and after differed in those two fields alone.
#include "l3/dsb/runner.h"

#include "trace_hash.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace l3::dsb {
namespace {

using l3::test_util::trace_hash;

DsbRunnerConfig short_config() {
  DsbRunnerConfig config;
  config.seed = 42;
  config.warmup = 10.0;
  config.duration = 40.0;
  config.disturbance.period = 12.0;
  config.disturbance.duration = 6.0;
  config.disturbance.skip_prob = 0.0;
  return config;
}

constexpr std::uint64_t kGoldenHotelRoundRobin = 0x42ab21b1e6b9d71aull;
constexpr std::uint64_t kGoldenHotelL3 = 0xd149b6c20b2b9935ull;
constexpr std::uint64_t kGoldenSocialL3 = 0x57dea3d26922145bull;

TEST(DsbDeterminism, HotelRoundRobinMatchesGoldenTrace) {
  const auto result =
      run_hotel_reservation(workload::PolicyKind::kRoundRobin, short_config());
  EXPECT_EQ(trace_hash(result), kGoldenHotelRoundRobin)
      << "trace hash: 0x" << std::hex << trace_hash(result);
}

TEST(DsbDeterminism, HotelL3MatchesGoldenTrace) {
  const auto result =
      run_hotel_reservation(workload::PolicyKind::kL3, short_config());
  EXPECT_EQ(trace_hash(result), kGoldenHotelL3)
      << "trace hash: 0x" << std::hex << trace_hash(result);
}

TEST(DsbDeterminism, SocialNetworkL3MatchesGoldenTrace) {
  const auto result =
      run_social_network(workload::PolicyKind::kL3, short_config());
  EXPECT_EQ(trace_hash(result), kGoldenSocialL3)
      << "trace hash: 0x" << std::hex << trace_hash(result);
}

}  // namespace
}  // namespace l3::dsb
