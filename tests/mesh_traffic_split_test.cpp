// Tests for TrafficSplit weight semantics.
#include "l3/mesh/traffic_split.h"

#include "l3/common/assert.h"

#include <gtest/gtest.h>

namespace l3::mesh {
namespace {

std::vector<BackendRef> three_backends() {
  return {{"svc", 0}, {"svc", 1}, {"svc", 2}};
}

TEST(TrafficSplit, StartsWithEqualWeights) {
  TrafficSplit split("svc", 0, three_backends());
  EXPECT_EQ(split.backend_count(), 3u);
  EXPECT_EQ(split.weights(), (std::vector<std::uint64_t>{1000, 1000, 1000}));
  EXPECT_EQ(split.generation(), 0u);
  EXPECT_EQ(split.service(), "svc");
  EXPECT_EQ(split.source(), 0u);
}

TEST(TrafficSplit, SetWeightsBumpsGeneration) {
  TrafficSplit split("svc", 0, three_backends());
  const std::vector<std::uint64_t> w{10, 20, 30};
  EXPECT_TRUE(split.set_weights(w));
  EXPECT_EQ(split.weights(), w);
  EXPECT_EQ(split.generation(), 1u);
}

TEST(TrafficSplit, NoOpSetWeightsKeepsGeneration) {
  TrafficSplit split("svc", 0, three_backends());
  // Re-publication of the current weights must not look like a change to
  // generation observers (the proxies' cached pickers).
  EXPECT_FALSE(split.set_weights(std::vector<std::uint64_t>{1000, 1000, 1000}));
  EXPECT_EQ(split.generation(), 0u);
  const std::vector<std::uint64_t> w{10, 20, 30};
  EXPECT_TRUE(split.set_weights(w));
  EXPECT_EQ(split.generation(), 1u);
  EXPECT_FALSE(split.set_weights(w));
  EXPECT_EQ(split.generation(), 1u);
}

TEST(TrafficSplit, ZeroWeightsAllowed) {
  TrafficSplit split("svc", 0, three_backends());
  const std::vector<std::uint64_t> w{0, 5, 0};
  split.set_weights(w);
  EXPECT_EQ(split.weights(), w);
}

TEST(TrafficSplit, RejectsSizeMismatch) {
  TrafficSplit split("svc", 0, three_backends());
  const std::vector<std::uint64_t> w{1, 2};
  EXPECT_THROW(split.set_weights(w), ContractViolation);
}

TEST(TrafficSplit, RejectsEmptyBackends) {
  EXPECT_THROW(TrafficSplit("svc", 0, {}), ContractViolation);
}

}  // namespace
}  // namespace l3::mesh
