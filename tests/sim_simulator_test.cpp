// Unit tests for the discrete-event simulation core.
#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace l3::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EqualTimestampsFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_until(2.0);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(5.5, [&] { seen = sim.now(); });
  sim.run_until(10.0);
  EXPECT_EQ(seen, 5.5);
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndKeepsLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(9.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(3.0, [&] { seen = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_EQ(seen, 5.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), l3::ContractViolation);
}

// Counts the moves of the closure that captures it; copies are deleted,
// so a move is the only way the closure can be relocated.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* m) : moves(m) {}
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves) { ++*moves; }
  MoveCounter(const MoveCounter&) = delete;
};

// Every scheduling entry point builds the caller's closure once, directly
// in its queue slot, and dispatch invokes it there: one move in all, for a
// closure stored inline and for one too large for EventFn's buffer.
TEST(Simulator, EachScheduledClosureIsMovedOnce) {
  Simulator sim;
  int moves[6] = {};
  int fired = 0;
  sim.schedule_at(1.0, [c = MoveCounter(&moves[0]), &fired] { ++fired; });
  sim.schedule_after(1.0, [c = MoveCounter(&moves[1]), &fired] { ++fired; });
  sim.schedule_delivered(1.0, 0, 0,
                         [c = MoveCounter(&moves[2]), &fired] { ++fired; });
  struct Big {
    MoveCounter c;
    int* fired;
    double pad[8];
    void operator()() { ++*fired; }
  };
  static_assert(!EventFn::fits_inline<Big>());
  sim.schedule_at(2.0, Big{MoveCounter(&moves[3]), &fired, {}});
  sim.schedule_after(2.0, Big{MoveCounter(&moves[4]), &fired, {}});
  sim.schedule_delivered(2.0, 0, 1, Big{MoveCounter(&moves[5]), &fired, {}});
  for (const int m : moves) EXPECT_EQ(m, 1);
  sim.run_until(3.0);
  EXPECT_EQ(fired, 6);
  for (const int m : moves) EXPECT_EQ(m, 1);
}

// An lvalue EventFn must be moved in explicitly; every entry point
// rejects it at compile time rather than copying or silently moving from it.
template <typename A>
concept SchedulableAt = requires(Simulator& s, A&& a) {
  s.schedule_at(1.0, std::forward<A>(a));
};
template <typename A>
concept SchedulableAfter = requires(Simulator& s, A&& a) {
  s.schedule_after(1.0, std::forward<A>(a));
};
template <typename A>
concept Deliverable = requires(Simulator& s, A&& a) {
  s.schedule_delivered(1.0, 0, 0, std::forward<A>(a));
};
template <typename A>
concept Pushable = requires(EventQueue& q, A&& a) {
  q.push(1.0, 0, std::forward<A>(a));
};
static_assert(SchedulableAt<EventFn> && !SchedulableAt<EventFn&> &&
              !SchedulableAt<const EventFn&>);
static_assert(SchedulableAfter<EventFn> && !SchedulableAfter<EventFn&> &&
              !SchedulableAfter<const EventFn&>);
static_assert(Deliverable<EventFn> && !Deliverable<EventFn&> &&
              !Deliverable<const EventFn&>);
static_assert(Pushable<EventFn> && !Pushable<EventFn&> &&
              !Pushable<const EventFn&>);

TEST(Simulator, EmptyEventFnIsRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, EventFn{}), l3::ContractViolation);
  EXPECT_THROW(sim.schedule_after(1.0, EventFn{}), l3::ContractViolation);
  EXPECT_THROW(sim.schedule_delivered(1.0, 0, 0, EventFn{}),
               l3::ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
}

// A null function pointer is refused when it is scheduled, not found by a
// crash when the event is dispatched.
TEST(Simulator, NullFunctionPointerIsRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, static_cast<void (*)()>(nullptr)),
               l3::ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run_until(2.0), 0u);
}

TEST(Simulator, ReentrantSchedulingFromEvent) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicTaskFiresAtInterval) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_every(5.0, [&] { times.push_back(sim.now()); });
  sim.run_until(21.0);
  ASSERT_EQ(times.size(), 5u);  // t = 0, 5, 10, 15, 20
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[4], 20.0);
}

TEST(Simulator, PeriodicTaskInitialDelay) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_every(5.0, [&] { times.push_back(sim.now()); }, 5.0);
  sim.run_until(12.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
  EXPECT_DOUBLE_EQ(times[1], 10.0);
}

TEST(Simulator, PeriodicTaskCancel) {
  Simulator sim;
  int count = 0;
  auto handle = sim.schedule_every(1.0, [&] { ++count; }, 1.0);
  sim.schedule_at(3.5, [&] { handle.cancel(); });
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);  // t = 1, 2, 3
  EXPECT_FALSE(handle.active());
}

TEST(Simulator, PeriodicTaskCancelFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicHandle handle;
  handle = sim.schedule_every(1.0, [&] {
    ++count;
    if (count == 2) handle.cancel();
  }, 1.0);
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ExecutedCountsAllEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run_until(100.0);
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1.0);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PeriodicFiringsAreDriftFree) {
  // 0.1 is not exactly representable in binary; an accumulating
  // `t += interval` drifts off the n*interval grid after enough firings.
  // The nth firing must land at exactly first + n*interval.
  Simulator sim;
  std::vector<double> times;
  const double interval = 0.1;
  sim.schedule_every(interval, [&] { times.push_back(sim.now()); }, interval);
  sim.run_until(100.0);
  ASSERT_GE(times.size(), 990u);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_EQ(times[k], interval + static_cast<double>(k) * interval)
        << "firing " << k << " drifted";
  }
}

}  // namespace
}  // namespace l3::sim
