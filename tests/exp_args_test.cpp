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

TEST(BenchArgsTest, BatchDefaultsToDispatchBatch) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->batch, 64);
}

TEST(BenchArgsTest, ParsesBatchValue) {
  const auto args = parse({"--batch=16"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->batch, 16);
}

TEST(BenchArgsTest, NoBatchRestoresPerEventLoop) {
  const auto args = parse({"--no-batch"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->batch, 1);
}

TEST(BenchArgsTest, BatchComposesWithOtherFlags) {
  const auto args = parse({"--fast", "--batch=8", "--jobs", "2"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->fast);
  EXPECT_EQ(args->batch, 8);
  EXPECT_EQ(args->jobs, 2);
}

TEST(BenchArgsTest, RejectsInvalidBatchValues) {
  for (const char* bad : {"--batch=0", "--batch=", "--batch=abc",
                          "--batch=-4", "--batch=3.5",
                          "--batch=99999999999999999999"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_NE(error.find("--batch"), std::string::npos) << bad;
  }
}

TEST(BenchArgsTest, RejectsDetachedBatchValue) {
  // Strict form is --batch=N; a bare --batch (with or without a following
  // token) must not silently parse.
  std::string error;
  EXPECT_FALSE(parse({"--batch"}, &error).has_value());
  EXPECT_NE(error.find("--batch"), std::string::npos);
  EXPECT_FALSE(parse({"--batch", "16"}).has_value());
}

TEST(BenchArgsTest, UsageMentionsEveryFlag) {
  const std::string usage = bench_usage("bench");
  EXPECT_NE(usage.find("--reps"), std::string::npos);
  EXPECT_NE(usage.find("--fast"), std::string::npos);
  EXPECT_NE(usage.find("--jobs"), std::string::npos);
  EXPECT_NE(usage.find("--json"), std::string::npos);
  EXPECT_NE(usage.find("--profile"), std::string::npos);
  EXPECT_NE(usage.find("--batch=N"), std::string::npos);
  EXPECT_NE(usage.find("--no-batch"), std::string::npos);
  EXPECT_NE(usage.find("--shards=N"), std::string::npos);
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
  const auto args =
      parse({"--fast", "--proxy-cost=100", "--shards=2", "--jobs", "3"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->fast);
  EXPECT_EQ(args->proxy_cost_us, 100);
  EXPECT_EQ(args->shards, 2);
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

TEST(BenchArgsTest, ShardsDefaultsToOne) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->shards, 1);
}

TEST(BenchArgsTest, ParsesShardsValue) {
  const auto args = parse({"--shards=4"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->shards, 4);
}

TEST(BenchArgsTest, ShardsComposesWithOtherFlags) {
  const auto args =
      parse({"--fast", "--shards=2", "--jobs", "3", "--batch=8"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->fast);
  EXPECT_EQ(args->shards, 2);
  EXPECT_EQ(args->jobs, 3);
  EXPECT_EQ(args->batch, 8);
}

TEST(BenchArgsTest, RejectsInvalidShardsValues) {
  std::string error;
  EXPECT_FALSE(parse({"--shards=0"}, &error).has_value());
  EXPECT_NE(error.find("--shards"), std::string::npos);
  EXPECT_FALSE(parse({"--shards=abc"}).has_value());
  EXPECT_FALSE(parse({"--shards=-2"}).has_value());
  EXPECT_FALSE(parse({"--shards=2.5"}).has_value());
  EXPECT_FALSE(parse({"--shards="}).has_value());
}

TEST(BenchArgsTest, RejectsDetachedShardsValue) {
  std::string error;
  EXPECT_FALSE(parse({"--shards"}, &error).has_value());
  EXPECT_NE(error.find("--shards"), std::string::npos);
  EXPECT_FALSE(parse({"--shards", "4"}).has_value());
}

}  // namespace
}  // namespace l3::exp
