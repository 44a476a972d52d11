// Tests for the event-core building blocks: EventFn small-buffer semantics
// and the EventQueue's (time, seq) pop order. The queue cases run against a
// reference model (an ordered set of (time, seq) pairs) and pop through
// both paths — pop_min and dispatch_batch, unbounded (as Simulator::step
// calls it) and bounded at the expected time (as run_until does) — so
// edge-of-range times, out-of-order seqs, slot-pool growth, clear() and
// deep drains are each checked for the exact order and the right callable.
#include "l3/sim/event.h"

#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace l3::sim {
namespace {

struct SmallCapture {
  int* target;
  std::uint64_t a;
  std::uint64_t b;
  void operator()() { ++*target; }
};
static_assert(sizeof(SmallCapture) <= EventFn::kInlineCapacity);

struct BigCapture {
  int* target;
  double pad[8];
  void operator()() { *target += 2; }
};
static_assert(sizeof(BigCapture) > EventFn::kInlineCapacity);

TEST(EventFn, SmallCapturesAreStoredInline) {
  int fired = 0;
  EventFn fn(SmallCapture{&fired, 1, 2});
  EXPECT_TRUE(fn.stored_inline());
  fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, OversizedCapturesFallBackToHeap) {
  int fired = 0;
  EventFn fn(BigCapture{&fired, {}});
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.stored_inline());
  fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventFn, FitsInlinePredicateMatchesStorage) {
  EXPECT_TRUE(EventFn::fits_inline<SmallCapture>());
  EXPECT_FALSE(EventFn::fits_inline<BigCapture>());
}

TEST(EventFn, DefaultConstructedIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.stored_inline());
}

TEST(EventFn, MoveTransfersCallableAndEmptiesSource) {
  int fired = 0;
  EventFn a(SmallCapture{&fired, 0, 0});
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, MoveAssignDestroysPreviousCallable) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  EventFn fn([token] { (void)token; });
  token.reset();
  EXPECT_FALSE(alive.expired());
  int fired = 0;
  fn = EventFn(SmallCapture{&fired, 0, 0});
  EXPECT_TRUE(alive.expired());
  fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, NonTrivialCaptureSurvivesMoveChain) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> alive = token;
  EventFn a([token] { ++*token; });
  token.reset();
  EventFn b(std::move(a));
  EventFn c(std::move(b));
  c();
  ASSERT_FALSE(alive.expired());
  EXPECT_EQ(*alive.lock(), 1);
  c.reset();
  EXPECT_TRUE(alive.expired());
}

TEST(EventFn, DestructorReleasesCapture) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> alive = token;
  {
    EventFn fn([token] { (void)token; });
    token.reset();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, 0, [] {});
  q.push(1.0, 1, [] {});
  q.push(2.0, 2, [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop_min().time, 1.0);
  EXPECT_EQ(q.pop_min().time, 2.0);
  EXPECT_EQ(q.pop_min().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPopFifoBySeq) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 64; ++s) q.push(1.0, s, [] {});
  for (std::uint64_t s = 0; s < 64; ++s) {
    const Event ev = q.pop_min();
    EXPECT_EQ(ev.time, 1.0);
    EXPECT_EQ(ev.seq, s);
  }
}

TEST(EventQueue, PopMovesCallableOut) {
  EventQueue q;
  int fired = 0;
  q.push(1.0, 0, SmallCapture{&fired, 0, 0});
  Event ev = q.pop_min();
  EXPECT_TRUE(q.empty());
  ev.fn();
  EXPECT_EQ(fired, 1);
}

// An EventQueue next to a reference model: every push goes to both, and
// every pop must return the model's minimum (time, seq) and run the
// callable pushed with it. Pops rotate through pop_min(), an unbounded
// one-event dispatch_batch() and a one-event dispatch_batch() bounded
// exactly at the expected time.
class ModelChecker {
 public:
  void push(double time, std::uint64_t seq) {
    q_.push(time, seq, [this, seq] { invoked_seq_ = seq; });
    ref_.emplace(time, seq);
  }

  void pop_and_check() {
    ASSERT_FALSE(ref_.empty());
    const auto [time, seq] = *ref_.begin();
    ref_.erase(ref_.begin());
    ASSERT_EQ(q_.size(), ref_.size() + 1);
    ASSERT_TRUE(same_bits(q_.min_time(), time));
    invoked_seq_ = ~0ull;
    const auto sink = [&](SimTime t, EventFn& fn) {
      EXPECT_TRUE(same_bits(t, time));
      fn();
      return true;
    };
    switch (pops_++ % 3) {
      case 0: {
        Event ev = q_.pop_min();
        EXPECT_TRUE(same_bits(ev.time, time));
        EXPECT_EQ(ev.seq, seq);
        ev.fn();
        break;
      }
      case 1:
        ASSERT_EQ(q_.dispatch_batch(std::numeric_limits<double>::infinity(),
                                    1, sink),
                  1u);
        break;
      default: {
        if (time > -std::numeric_limits<double>::infinity()) {
          const double before =
              std::nextafter(time, -std::numeric_limits<double>::infinity());
          ASSERT_EQ(q_.dispatch_batch(before, 1, sink), 0u);
        }
        ASSERT_EQ(q_.dispatch_batch(time, 1, sink), 1u);
        break;
      }
    }
    EXPECT_EQ(invoked_seq_, seq);
    last_time_ = time;
  }

  void drain() {
    while (!ref_.empty() && !::testing::Test::HasFatalFailure()) {
      pop_and_check();
    }
    EXPECT_TRUE(q_.empty());
  }

  EventQueue& queue() { return q_; }
  std::size_t size() const { return ref_.size(); }
  double min_time() const { return ref_.begin()->first; }
  double last_time() const { return last_time_; }

 private:
  // Times come back bit-exact, except that -0.0 is the same instant as
  // +0.0 and comes back as +0.0.
  static bool same_bits(double got, double pushed) {
    return std::bit_cast<std::uint64_t>(got) ==
           std::bit_cast<std::uint64_t>(pushed + 0.0);
  }

  EventQueue q_;
  std::set<std::pair<double, std::uint64_t>> ref_;
  std::uint64_t invoked_seq_ = 0;
  std::size_t pops_ = 0;
  double last_time_ = 0.0;
};

// Randomized interleaving: bursts of future pushes, pushes tied with the
// current minimum (seq must break the tie FIFO), and pops, with a full
// drain between phases so the heap shrinks to empty and regrows.
TEST(EventQueue, RandomInterleavingMatchesReferenceModel) {
  std::mt19937 rng(20260806u);
  std::uniform_real_distribution<double> jitter(0.0, 10.0);
  ModelChecker m;
  std::uint64_t next_seq = 0;
  for (int phase = 0; phase < 4; ++phase) {
    for (int i = 0; i < 3000; ++i) {
      m.push(m.last_time() + jitter(rng), next_seq++);
    }
    for (int i = 0; i < 6000; ++i) {
      const int action = static_cast<int>(rng() % 4);
      if (action == 0) {
        m.push(m.last_time() + jitter(rng), next_seq++);
      } else if (action == 1 && m.size() > 0) {
        m.push(m.min_time(), next_seq++);
      } else if (m.size() > 0) {
        m.pop_and_check();
      }
      ASSERT_FALSE(HasFatalFailure());
    }
    m.drain();
  }
}

// Edge-of-range times: both zeros, negatives down to -inf, subnormals,
// 1e300 and +inf, each several times with seqs pushed in shuffled order.
TEST(EventQueue, EdgeTimesMatchReferenceModel) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> times = {
      0.0, -0.0, -1.0, -1e-300, -1e300, -inf, 1e300, inf,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), 0.5};
  std::vector<std::uint64_t> seqs(times.size() * 6);
  for (std::size_t i = 0; i < seqs.size(); ++i) seqs[i] = i;
  std::mt19937 rng(7u);
  std::shuffle(seqs.begin(), seqs.end(), rng);
  ModelChecker m;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    m.push(times[i % times.size()], seqs[i]);
  }
  m.drain();
}

// -0.0 and +0.0 are one instant: FIFO by seq across the two zeros, and the
// time comes back as +0.0.
TEST(EventQueue, SignedZerosAreOneInstant) {
  EventQueue q;
  q.push(-0.0, 2, [] {});
  q.push(0.0, 1, [] {});
  q.push(-0.0, 0, [] {});
  for (std::uint64_t s = 0; s < 3; ++s) {
    const Event ev = q.pop_min();
    EXPECT_EQ(ev.seq, s);
    EXPECT_EQ(ev.time, 0.0);
    EXPECT_FALSE(std::signbit(ev.time));
  }
}

TEST(EventQueue, PushRejectsNan) {
  EventQueue q;
  EXPECT_THROW(q.push(std::nan(""), 0, [] {}), l3::ContractViolation);
  EXPECT_TRUE(q.empty());
}

// The shape Simulator::schedule_delivered produces: cross-shard deliveries
// at one timestamp arrive in commit order, not seq order, with seqs in the
// delivered band above every local seq. Local events at that timestamp
// fire first, then deliveries by (origin cluster, origin seq).
TEST(EventQueue, DeliveredSeqBandOutOfOrderAtEqualTimes) {
  std::mt19937 rng(11u);
  ModelChecker m;
  std::uint64_t local_seq = 0;
  for (int round = 0; round < 50; ++round) {
    const double t = 1.0 + round * 0.25;
    std::vector<std::uint64_t> delivered;
    for (std::uint64_t cluster = 0; cluster < 6; ++cluster) {
      for (std::uint64_t origin = 0; origin < 8; ++origin) {
        delivered.push_back(
            Simulator::kDeliveredSeqBase |
            (cluster << Simulator::kDeliveredSeqBits) |
            ((origin * 2654435761ull + round) &
             ((1ull << Simulator::kDeliveredSeqBits) - 1)));
      }
    }
    std::shuffle(delivered.begin(), delivered.end(), rng);
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      m.push(t, delivered[i]);
      if (i % 5 == 0) m.push(t, local_seq++);
    }
    // Drain all but a few, so later rounds push behind leftovers.
    while (m.size() > 7) {
      m.pop_and_check();
      ASSERT_FALSE(HasFatalFailure());
    }
  }
  m.drain();
}

// More than 256 pending entries: the slot pool grows past its first chunk,
// and popped slots from several chunks are recycled through the free list
// while their neighbours are still pending.
TEST(EventQueue, FreeListCrossesSlotChunkBoundaries) {
  std::mt19937 rng(3u);
  std::uniform_real_distribution<double> when(0.0, 100.0);
  ModelChecker m;
  std::uint64_t seq = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 700; ++i) m.push(when(rng), seq++);
    for (int i = 0; i < 500; ++i) {
      m.pop_and_check();
      ASSERT_FALSE(HasFatalFailure());
    }
  }
  EXPECT_GT(m.size(), 256u);
  m.drain();
}

// clear() drops every pending callable (releasing its captures) and leaves
// a queue that behaves as new.
TEST(EventQueue, ClearThenReuse) {
  ModelChecker m;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> alive = token;
  m.queue().push(5.0, 1000, [token] { (void)token; });
  token.reset();
  for (std::uint64_t s = 0; s < 300; ++s) m.queue().push(1.0 * s, s, [] {});
  m.queue().clear();
  EXPECT_TRUE(m.queue().empty());
  EXPECT_EQ(m.queue().size(), 0u);
  EXPECT_TRUE(alive.expired());
  std::mt19937 rng(5u);
  std::uniform_real_distribution<double> when(0.0, 10.0);
  for (std::uint64_t s = 0; s < 400; ++s) m.push(when(rng), 400 - s);
  m.drain();
}

// A 200k-deep pending set drained to empty, the depth of
// bench/sim_core's event_core workload.
TEST(EventQueue, DeepDrainMatchesReferenceModel) {
  std::mt19937_64 rng(42u);
  std::uniform_real_distribution<double> when(0.0, 1000.0);
  ModelChecker m;
  for (std::uint64_t s = 0; s < 200000; ++s) {
    // Every 16th push ties with an earlier time to keep seq in play.
    m.push(s % 16 == 0 ? std::floor(when(rng)) : when(rng), s);
  }
  m.drain();
}

// The same property through the public Simulator API, with periodic tasks
// cancelled at random: no callback may observe a clock that moved
// backwards, and no cancelled task may fire after its cancellation time.
TEST(Simulator, RandomScheduleAndCancelKeepsClockMonotonic) {
  std::mt19937 rng(97u);
  std::uniform_real_distribution<double> delay(0.0, 5.0);

  Simulator sim;
  double last_seen = 0.0;
  std::uint64_t fired = 0;
  struct Task {
    PeriodicHandle handle;
    double cancelled_at = -1.0;
  };
  std::vector<Task> tasks;
  auto observe = [&] {
    EXPECT_GE(sim.now(), last_seen);
    last_seen = sim.now();
    ++fired;
  };

  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) sim.schedule_after(delay(rng), observe);
    Task task;
    task.handle = sim.schedule_every(0.25 + delay(rng) * 0.1, [&, idx = tasks.size()] {
      observe();
      ASSERT_LT(idx, tasks.size());
      EXPECT_LT(tasks[idx].cancelled_at, 0.0)
          << "cancelled task fired after cancellation";
    });
    tasks.push_back(std::move(task));
    if (!tasks.empty() && rng() % 2 == 0) {
      Task& victim = tasks[rng() % tasks.size()];
      if (victim.cancelled_at < 0.0) {
        victim.handle.cancel();
        victim.cancelled_at = sim.now();
      }
    }
    sim.run_for(1.0);
  }
  for (Task& task : tasks) task.handle.cancel();
  sim.run_for(10.0);
  EXPECT_GT(fired, 1000u);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace l3::sim
