// Building blocks of the allocation-free event core: `EventFn`, a move-only
// callable with small-buffer optimization sized for the closures the mesh
// hot path actually schedules (proxy hops, WAN transits, client arrivals),
// and `EventQueue`, a flat 4-ary min-heap of 16-byte (time, seq) keys.
//
// Why not std::function + std::priority_queue:
//   * std::function heap-allocates for captures beyond ~2 pointers; every
//     simulated request crosses the queue 5+ times, so those allocations
//     dominated schedule_at() profiles. EventFn stores captures up to
//     kInlineCapacity bytes in place and only falls back to the heap for
//     oversized callables.
//   * priority_queue::top() returns a const reference, forcing a const_cast
//     to move the callable out before pop(). EventQueue::pop_min() moves the
//     root out safely. And a priority_queue<Event> sifts whole events with
//     a comparator that branches on time, then seq; EventQueue sifts single
//     integer keys, four children to a cache line, and picks the smallest
//     child without a per-child branch.
//
// Why not a tiered (lazy) queue: the pending set is small. On the ledger
// workloads the heap peaks at 39 (hotel) to 308 (mega) entries, at most
// 5 KiB, so every sift already runs in L1. A sorted run and a staging
// buffer behind the heap would only add a horizon compare per push and a
// refill check per pop (DESIGN.md §8 has the measurements).
#pragma once

#include "l3/common/assert.h"
#include "l3/common/function.h"
#include "l3/common/order_key.h"
#include "l3/common/time.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace l3::sim {

/// Move-only `void()` callable with inline storage for small captures.
/// Capacity is sized for the common event shapes — `this` + a pool handle +
/// a few scalars — and, deliberately, one byte-budget step above the mesh
/// callback types (l3/mesh/types.h) so a completion callback plus a scalar
/// still schedules inline.
using EventFn = common::SmallFn<void(), 48>;

/// What the scheduling entry points (EventQueue::push, Simulator::
/// schedule_at/schedule_after/schedule_delivered, ShardRouter::post) take:
/// an EventFn rvalue, or any other callable an EventFn can hold. An lvalue
/// EventFn is not one: it must be moved in explicitly.
template <typename F>
concept EventCallable =
    std::is_constructible_v<EventFn, F> &&
    !std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t>;

/// The emptiness precondition of the scheduling entry points: an EventFn
/// must hold a callable. Any other callable is checked as it is built
/// (SmallFn rejects a null function or member pointer).
template <typename F>
void expect_callable(const F& fn) {
  if constexpr (std::is_same_v<F, EventFn>) {
    L3_EXPECTS(static_cast<bool>(fn));
  }
}

/// One popped event. `seq` breaks timestamp ties FIFO, which is what makes
/// equal-time events fire in scheduling order (the determinism contract).
struct Event {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  EventFn fn;
};

/// Pending-event queue: one flat 4-ary min-heap of 128-bit keys.
///
/// A key's high word is order_key(time), its low word `seq << 24 | slot`,
/// so one unsigned compare orders entries by (time, seq) — sequence
/// numbers need not arrive in order (cross-shard deliveries carry a
/// shard-count-invariant seq, see Simulator::schedule_delivered) — and
/// the slot rides along for free. Any non-NaN time orders as operator<
/// does and pops back exactly as pushed, except that -0.0 is keyed, and
/// returned, as the same instant +0.0.
///
/// The EventFns sit in a chunked slot pool on the side, their indices
/// recycled through a free list. A callable is built once, in its slot, by
/// push() — the scheduling entry points above it forward the caller's
/// closure by reference, so from call site to dispatch it is moved exactly
/// once (an EventFn argument is moved in instead) — and dispatch_batch()
/// invokes it in place; only pop_min() moves it out. Steady state runs
/// allocation-free: pool and heap high-watermark at the maximum number of
/// concurrently pending events.
class EventQueue {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest event; undefined when empty.
  SimTime min_time() const {
    L3_EXPECTS(!empty());
    return time_of(heap_.front());
  }

  /// Queues `fn` at (time, seq). An EventFn argument is move-assigned
  /// into its pool slot; any other callable is built in the slot
  /// (EventFn::emplace) and never relocated. If building it throws, the
  /// queue is left unchanged.
  template <EventCallable F>
  void push(SimTime time, std::uint64_t seq, F&& fn) {
    L3_EXPECTS(!std::isnan(time));
    L3_EXPECTS(seq <= kMaxSeq);
    // The slot is claimed only once the callable is in it.
    const bool reuse = !free_slots_.empty();
    const std::uint32_t slot = reuse ? free_slots_.back() : new_slot();
    const Key key = (Key{time_key(time)} << 64) | (seq << kSlotBits) | slot;
    heap_.push_back(key);
    EventFn& dst = slot_ref(slot);
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
      dst = std::forward<F>(fn);
    } else {
      try {
        dst.emplace(std::forward<F>(fn));
      } catch (...) {
        heap_.pop_back();
        throw;
      }
    }
    if (reuse) {
      free_slots_.pop_back();
    } else {
      ++slot_count_;
    }
    sift_up(key);
  }

  /// Removes and returns the earliest event by move — no const_cast, no
  /// copy of the callable.
  Event pop_min() {
    L3_EXPECTS(!empty());
    const Key top = take_min();
    const std::uint32_t slot = slot_of(top);
    free_slots_.push_back(slot);
    return Event{time_of(top), static_cast<std::uint64_t>(top) >> kSlotBits,
                 std::move(slot_ref(slot))};
  }

  /// Drains up to `max_n` events with time <= `end`, invoking
  /// `sink(time, fn) -> bool` for each with the callable still in its pool
  /// slot — no move-out. Each slot is reclaimed only after the sink
  /// returns, and chunked slot storage keeps the reference valid even when
  /// the sink re-enters push() (new pushes may add a chunk but never
  /// relocate existing ones); pop_min() instead pays a full SmallFn
  /// relocation per event. The pop order is (time, seq), exactly as
  /// repeated pop_min() calls would give; re-entrant pushes are observed
  /// immediately (an event scheduling at the current timestamp is popped
  /// within the same batch), and a `false` return from the sink ends the
  /// batch after that event. Returns the number dispatched.
  template <typename Sink>
  std::size_t dispatch_batch(SimTime end, std::size_t max_n, Sink&& sink) {
    const std::uint64_t end_key = time_key(end);
    std::size_t n = 0;
    while (n < max_n && !heap_.empty() &&
           static_cast<std::uint64_t>(heap_.front() >> 64) <= end_key) {
      ++n;
      if (!run_top(take_min(), sink)) break;
    }
    return n;
  }

  void clear() noexcept {
    heap_.clear();
    chunks_.clear();
    slot_count_ = 0;
    free_slots_.clear();
  }

 private:
  __extension__ typedef unsigned __int128 Key;
  static_assert(sizeof(Key) == 16);

  // Sequence number and slot index share the key's low word, seq in the
  // high bits: sequence numbers are unique, so comparing the packed word
  // orders equal-time entries FIFO exactly as comparing seq alone would.
  // The 40/24 split allows ~1.1e12 total events and ~16.7M concurrently
  // pending — both guarded by preconditions in push().
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (~0ull) >> kSlotBits;
  static constexpr std::size_t kArity = 4;

  /// The high key word. Adding +0.0 turns -0.0 into +0.0, so the two
  /// zeros — equal under operator< — get one key and keep FIFO order.
  static std::uint64_t time_key(SimTime t) noexcept {
    return order_key(t + 0.0);
  }
  static SimTime time_of(Key k) noexcept {
    return key_to_double(static_cast<std::uint64_t>(k >> 64));
  }
  static std::uint32_t slot_of(Key k) noexcept {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) &
                                      kSlotMask);
  }

  /// Unlinks the root and returns it, starting the load of its slot first
  /// so the randomly accessed pool overlaps with the sift.
  Key take_min() {
    const Key top = heap_.front();
#if defined(__GNUC__)
    __builtin_prefetch(&slot_ref(slot_of(top)));
#endif
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return top;
  }

  /// Invokes `sink` on the unlinked `top`'s callable in place, then
  /// reclaims its slot. Returns the sink's result.
  template <typename Sink>
  bool run_top(Key top, Sink&& sink) {
    const std::uint32_t slot = slot_of(top);
    EventFn& fn = slot_ref(slot);
    const bool keep_going = sink(time_of(top), fn);
    fn.reset();
    free_slots_.push_back(slot);
    return keep_going;
  }

  /// Moves `moving`, just appended at the back, up to its place.
  void sift_up(Key moving) noexcept {
    Key* const h = heap_.data();
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(moving < h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = moving;
  }

  /// Fills the root hole with `moving`, sifting it down to its place.
  void sift_down(Key moving) noexcept {
    Key* const h = heap_.data();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t c = i * kArity + 1;
      std::size_t best;
      if (c + kArity <= n) {
        // All four children exist: two pairwise selects and a final one,
        // no per-child branch.
        const std::size_t a = c + (h[c + 1] < h[c]);
        const std::size_t b = c + 2 + (h[c + 3] < h[c + 2]);
        best = h[b] < h[a] ? b : a;
      } else if (c < n) {
        best = c;
        for (std::size_t k = c + 1; k < n; ++k) {
          if (h[k] < h[best]) best = k;
        }
      } else {
        break;
      }
      if (!(h[best] < moving)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = moving;
  }

  // Slot pool for the EventFns, stored in fixed-size chunks so a slot's
  // address never changes once allocated. That stability is what lets
  // dispatch_batch() hand out a reference into the pool while the callable
  // runs: re-entrant pushes can grow the pool by appending a chunk, but
  // never relocate live slots the way a flat vector's reallocation would.
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = 1u << kChunkShift;

  /// The next never-used slot index, with its chunk allocated; the caller
  /// claims it by bumping slot_count_.
  std::uint32_t new_slot() {
    const std::uint32_t slot = slot_count_;
    L3_EXPECTS(slot <= kSlotMask);
    if ((slot >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
    }
    return slot;
  }

  EventFn& slot_ref(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace l3::sim
