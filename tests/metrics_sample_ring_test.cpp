// Tests for the power-of-two ring buffer behind the TSDB sample storage:
// FIFO semantics across growth and wrap-around, O(1) random access, eager
// release of element-owned memory on pop_front, and move-out take_front
// (the replica wait queue's dequeue).
#include "l3/metrics/sample_ring.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>

namespace l3::metrics {
namespace {

TEST(SampleRing, StartsEmpty) {
  SampleRing<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SampleRing, PushBackThenIndexInFifoOrder) {
  SampleRing<int> ring;
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  ASSERT_EQ(ring.size(), 100u);
  EXPECT_EQ(ring.front(), 0);
  EXPECT_EQ(ring.back(), 99);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i));
  }
}

TEST(SampleRing, PopFrontAdvancesWindow) {
  SampleRing<int> ring;
  for (int i = 0; i < 10; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  ASSERT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.front(), 2);
  EXPECT_EQ(ring[0], 2);
  EXPECT_EQ(ring.back(), 9);
}

TEST(SampleRing, WrapsAroundWithoutGrowingWhenDrained) {
  SampleRing<int> ring;
  // Interleaved push/pop keeps the size tiny while head_ laps the storage
  // repeatedly — the indexing must stay FIFO across every wrap.
  int next = 0;
  int expect_front = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    ring.push_back(next++);
    ring.push_back(next++);
    EXPECT_EQ(ring.front(), expect_front);
    ring.pop_front();
    ring.pop_front();
    expect_front += 2;
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SampleRing, RandomOpsMatchDequeReference) {
  std::mt19937 rng(42u);
  SampleRing<int> ring;
  std::deque<int> reference;
  int next = 0;
  for (int op = 0; op < 20000; ++op) {
    if (reference.empty() || rng() % 3 != 0) {
      ring.push_back(next);
      reference.push_back(next);
      ++next;
    } else {
      EXPECT_EQ(ring.front(), reference.front());
      ring.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(ring.size(), reference.size());
    if (!reference.empty()) {
      EXPECT_EQ(ring.front(), reference.front());
      EXPECT_EQ(ring.back(), reference.back());
      const std::size_t mid = reference.size() / 2;
      EXPECT_EQ(ring[mid], reference[mid]);
    }
  }
}

TEST(SampleRing, PopFrontReleasesOwnedMemoryEagerly) {
  SampleRing<std::shared_ptr<int>> ring;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  ring.push_back(std::move(token));
  ring.push_back(std::make_shared<int>(2));
  EXPECT_FALSE(alive.expired());
  ring.pop_front();
  // The slot must be reset on pop, not when it is next overwritten.
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(ring.size(), 1u);
}

TEST(SampleRing, ClearEmptiesAndAllowsReuse) {
  SampleRing<int> ring;
  for (int i = 0; i < 37; ++i) ring.push_back(i);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);  // the storage is freed, not kept
  ring.push_back(5);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.front(), 5);
}

TEST(SampleRing, TakeFrontMovesOutInFifoOrderAcrossGrowthAndWrap) {
  SampleRing<std::unique_ptr<int>> ring;
  int next = 0;
  int expect = 0;
  // Push three, take two per cycle: the ring grows while head_ keeps
  // lapping the storage, and move-only elements come out in push order.
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (int k = 0; k < 3; ++k) ring.push_back(std::make_unique<int>(next++));
    for (int k = 0; k < 2; ++k) {
      const std::unique_ptr<int> value = ring.take_front();
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(*value, expect++);
    }
  }
  while (!ring.empty()) EXPECT_EQ(*ring.take_front(), expect++);
  EXPECT_EQ(expect, next);
  EXPECT_THROW(ring.take_front(), ContractViolation);
}

TEST(SampleRing, AllocatesNothingUntilTheFirstPushThenDoubles) {
  SampleRing<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push_back(0);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 1; i < 9; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), 16u);
}

}  // namespace
}  // namespace l3::metrics
