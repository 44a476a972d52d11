// Tests for the shared bench argument parser: strict numeric validation
// (no raw atoi), the --jobs/--json flags, and error reporting.
#include "l3/exp/args.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace l3::exp {
namespace {

std::optional<BenchArgs> parse(std::vector<std::string> tokens,
                               std::string* error = nullptr) {
  std::vector<char*> argv;
  static std::string prog = "bench";
  argv.push_back(prog.data());
  for (auto& token : tokens) argv.push_back(token.data());
  std::string local;
  return try_parse_bench_args(static_cast<int>(argv.size()), argv.data(),
                              error ? error : &local);
}

TEST(ParseUintTest, AcceptsPlainDigits) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_EQ(parse_uint("1000000"), 1000000u);
}

TEST(ParseUintTest, RejectsGarbage) {
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("-3").has_value());
  EXPECT_FALSE(parse_uint("3.5").has_value());
  EXPECT_FALSE(parse_uint("12abc").has_value());
  EXPECT_FALSE(parse_uint("abc").has_value());
  EXPECT_FALSE(parse_uint(" 7").has_value());
  EXPECT_FALSE(parse_uint("99999999999999999999999").has_value());
}

TEST(BenchArgsTest, Defaults) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->reps, -1);
  EXPECT_FALSE(args->fast);
  EXPECT_EQ(args->jobs, 0);
  EXPECT_TRUE(args->json.empty());
  EXPECT_FALSE(args->profile);
}

TEST(BenchArgsTest, ParsesProfile) {
  const auto args = parse({"--profile"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->profile);
}

TEST(BenchArgsTest, ProfileComposesWithOtherFlags) {
  const auto args = parse({"--fast", "--profile", "--jobs", "2"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->fast);
  EXPECT_TRUE(args->profile);
  EXPECT_EQ(args->jobs, 2);
}

TEST(BenchArgsTest, RejectsProfileMisspellings) {
  // The strict parser must not silently accept near-misses: a typo'd
  // --profile would otherwise run the bench unprofiled and waste the run.
  for (const char* typo :
       {"--profil", "--profiles", "--Profile", "-profile", "--prof"}) {
    std::string error;
    EXPECT_FALSE(parse({typo}, &error).has_value()) << typo;
    EXPECT_NE(error.find(typo), std::string::npos) << typo;
  }
}

TEST(BenchArgsTest, ProfileTakesNoValue) {
  // "--profile 1" leaves "1" as a stray positional → rejected.
  EXPECT_FALSE(parse({"--profile", "1"}).has_value());
}

TEST(BenchArgsTest, ParsesAllFlags) {
  const auto args =
      parse({"--fast", "--reps", "3", "--jobs", "8", "--json", "out.json"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->fast);
  EXPECT_EQ(args->reps, 3);
  EXPECT_EQ(args->jobs, 8);
  EXPECT_EQ(args->json, "out.json");
}

TEST(BenchArgsTest, RejectsNonNumericReps) {
  std::string error;
  EXPECT_FALSE(parse({"--reps", "foo"}, &error).has_value());
  EXPECT_NE(error.find("--reps"), std::string::npos);
}

TEST(BenchArgsTest, RejectsNegativeAndZeroReps) {
  EXPECT_FALSE(parse({"--reps", "-2"}).has_value());
  EXPECT_FALSE(parse({"--reps", "0"}).has_value());
  // 2^32 - 1 would wrap to -1, the "use default" sentinel.
  std::string error;
  EXPECT_FALSE(parse({"--reps", "4294967295"}, &error).has_value());
  EXPECT_NE(error.find("--reps"), std::string::npos);
}

TEST(BenchArgsTest, RejectsMissingValues) {
  EXPECT_FALSE(parse({"--reps"}).has_value());
  EXPECT_FALSE(parse({"--jobs"}).has_value());
  EXPECT_FALSE(parse({"--json"}).has_value());
}

TEST(BenchArgsTest, RejectsInvalidJobs) {
  EXPECT_FALSE(parse({"--jobs", "zero"}).has_value());
  EXPECT_FALSE(parse({"--jobs", "0"}).has_value());
  EXPECT_FALSE(parse({"--jobs", "-1"}).has_value());
  // 2^32 would wrap to 0, which means "auto".
  std::string error;
  EXPECT_FALSE(parse({"--jobs", "4294967296"}, &error).has_value());
  EXPECT_NE(error.find("--jobs"), std::string::npos);
}

TEST(BenchArgsTest, RejectsUnknownFlags) {
  std::string error;
  EXPECT_FALSE(parse({"--frobnicate"}, &error).has_value());
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
}

TEST(BenchArgsTest, RejectsRemovedBatchFlags) {
  // The event batch is a constant of the simulator now; the old knobs must
  // fail loudly instead of being silently accepted.
  for (const char* removed : {"--batch=16", "--no-batch"}) {
    std::string error;
    EXPECT_FALSE(parse({removed}, &error).has_value()) << removed;
    EXPECT_EQ(error, "unknown argument '" + std::string(removed) + "'");
  }
  const std::string usage = bench_usage("bench");
  EXPECT_EQ(usage.find("batch"), std::string::npos);
}

TEST(BenchArgsTest, UsageMentionsEveryFlag) {
  const std::string usage = bench_usage("bench");
  EXPECT_NE(usage.find("--reps"), std::string::npos);
  EXPECT_NE(usage.find("--fast"), std::string::npos);
  EXPECT_NE(usage.find("--jobs"), std::string::npos);
  EXPECT_NE(usage.find("--json"), std::string::npos);
  EXPECT_NE(usage.find("--profile"), std::string::npos);
  EXPECT_NE(usage.find("--proxy-cost=US"), std::string::npos);
}

TEST(BenchArgsTest, ProxyCostDefaultsToZero) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->proxy_cost_us, 0);
}

TEST(BenchArgsTest, ParsesProxyCostValue) {
  const auto args = parse({"--proxy-cost=250"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->proxy_cost_us, 250);
}

TEST(BenchArgsTest, ProxyCostZeroIsExplicitlyAllowed) {
  // --proxy-cost=0 is the byte-identity baseline check.sh diffs against.
  const auto args = parse({"--proxy-cost=0"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->proxy_cost_us, 0);
}

TEST(BenchArgsTest, ProxyCostComposesWithOtherFlags) {
  const auto args = parse({"--fast", "--proxy-cost=100", "--jobs", "3"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->fast);
  EXPECT_EQ(args->proxy_cost_us, 100);
  EXPECT_EQ(args->jobs, 3);
}

TEST(BenchArgsTest, RejectsInvalidProxyCostValues) {
  for (const char* bad : {"--proxy-cost=", "--proxy-cost=abc",
                          "--proxy-cost=-50", "--proxy-cost=2.5",
                          "--proxy-cost=99999999999999999999"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_NE(error.find("--proxy-cost"), std::string::npos) << bad;
  }
}

TEST(BenchArgsTest, RejectsDetachedProxyCostValue) {
  std::string error;
  EXPECT_FALSE(parse({"--proxy-cost"}, &error).has_value());
  EXPECT_NE(error.find("--proxy-cost"), std::string::npos);
  EXPECT_FALSE(parse({"--proxy-cost", "100"}).has_value());
}

TEST(BenchArgsTest, RejectsRemovedShardsFlag) {
  // Sharding is a property of the mega scenario (MegaConfig::shards); the
  // three-cluster runners have one simulator, so the old knob must fail
  // loudly instead of being silently accepted.
  const std::vector<std::vector<std::string>> removed = {
      {"--shards=2"}, {"--shards"}, {"--shards", "4"}};
  for (const auto& tokens : removed) {
    std::string error;
    EXPECT_FALSE(parse(tokens, &error).has_value()) << tokens[0];
    EXPECT_EQ(error, "unknown argument '" + tokens[0] + "'");
  }
  const std::string usage = bench_usage("bench");
  EXPECT_EQ(usage.find("shard"), std::string::npos);
}

TEST(BenchArgsTest, AttachedFlagErrorsNameTheFlag) {
  const auto error_of = [](const char* arg) {
    std::string error;
    EXPECT_FALSE(parse({arg}, &error).has_value()) << arg;
    return error;
  };
  EXPECT_EQ(error_of("--proxy-cost"),
            "--proxy-cost requires an attached value: --proxy-cost=US");
  EXPECT_EQ(error_of("--proxy-cost=-5"),
            "--proxy-cost expects an integer >= 0 (microseconds), got '-5'");
  // A longer spelling that merely starts with a flag's name is unknown.
  EXPECT_EQ(error_of("--proxy-costX=1"), "unknown argument '--proxy-costX=1'");
}

}  // namespace
}  // namespace l3::exp
