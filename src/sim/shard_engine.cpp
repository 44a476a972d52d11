#include "l3/sim/shard_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

namespace l3::sim {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

// Re-checks of the peers' horizons before an acquirer parks. A window's
// compute is a few microseconds at mega scale, so most waits end inside
// this budget; a peer that is descheduled or far behind is waited out
// parked instead of burning a core.
constexpr int kSpinChecks = 1024;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}
}  // namespace

// ---------------------------------------------------------------------------
// ShardRouter

ShardRouter::PostKey ShardRouter::claim_post(std::uint32_t origin,
                                             std::uint32_t target,
                                             SimTime time) {
  L3_EXPECTS(sim_ != nullptr);
  L3_EXPECTS(engine_->owner(origin) == shard_);
  L3_EXPECTS(origin < next_seq_.size());
  const SimDuration la = engine_->cluster_lookahead(origin, target);
  const std::size_t target_shard = engine_->owner(target);
  if (std::isfinite(la)) {
    // The conservative bound: the barrier promised peers nothing from this
    // pair arrives earlier than now + floor. Callers derive `time` from a
    // WAN sample, and sample >= floor makes this exact in floating point
    // (addition is monotonic per operand).
    L3_EXPECTS(time >= sim_->now() + la);
  } else {
    L3_EXPECTS(target_shard == shard_);
    L3_EXPECTS(time >= sim_->now());
  }
  return PostKey{target_shard, next_seq_[origin]++};
}

void ShardRouter::drain_commit() {
  for (std::size_t s = 0; s < inbound_.size(); ++s) {
    if (s == shard_) continue;
    std::vector<ShardMessage>& buf = inbound_[s];
    engine_->lane(s, shard_).drain(buf);
    for (ShardMessage& m : buf) {
      sim_->schedule_delivered(m.time, m.origin_cluster, m.origin_seq,
                               std::move(m.fn));
    }
    buf.clear();
  }
}

void ShardRouter::flush_all() {
  for (std::size_t s = 0; s < staging_.size(); ++s) {
    if (s != shard_) staging_[s].flush();
  }
}

void ShardRouter::run_until(SimTime end) {
  L3_EXPECTS(sim_ != nullptr);
  L3_EXPECTS(end >= sim_->now());
  for (;;) {
    const SimTime safe = engine_->acquire(shard_, committed_);
    drain_commit();
    if (safe > end) {
      // Final window: every message still in flight toward this shard
      // arrives strictly after `end`. Run inclusively, exactly like the
      // legacy loop, and release the peers for good.
      sim_->run_until(end);
      flush_all();
      engine_->publish(shard_, kInf);
      committed_ = kInf;
      return;
    }
    // Execute strictly below `safe`: t < safe  <=>  t <= pred(safe), so the
    // legacy inclusive run_until needs no new entry point.
    sim_->run_until(std::nextafter(safe, -kInf));
    flush_all();
    engine_->publish(shard_, safe);
    committed_ = safe;
  }
}

MailboxStats ShardRouter::mailbox_stats() const {
  MailboxStats total;
  for (const MailboxStaging& s : staging_) total += s.stats();
  return total;
}

// ---------------------------------------------------------------------------
// ShardEngine

ShardEngine::ShardEngine(Config config)
    : config_(config),
      shard_count_(config.shards),
      // Spinning only pays when every shard can hold a core; oversubscribed,
      // a spinner steals the very core the peer it waits on needs.
      spin_(shard_count_ <= std::max(1u, std::thread::hardware_concurrency())),
      lanes_(std::make_unique<MailboxLane[]>(shard_count_ * shard_count_)),
      slots_(std::make_unique<Slot[]>(shard_count_)) {
  L3_EXPECTS(shard_count_ >= 1);
  L3_EXPECTS(config_.mailbox_capacity >= 1);
  routers_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    auto router = std::make_unique<ShardRouter>();
    router->engine_ = this;
    router->shard_ = s;
    router->staging_.resize(shard_count_);
    router->inbound_.resize(shard_count_);
    for (std::size_t t = 0; t < shard_count_; ++t) {
      if (t == s) continue;
      router->staging_[t].bind(&lane(s, t), config_.mailbox_capacity);
    }
    routers_.push_back(std::move(router));
  }
}

void ShardEngine::set_cluster_owners(std::vector<std::size_t> owners) {
  for (const std::size_t s : owners) L3_EXPECTS(s < shard_count_);
  owners_ = std::move(owners);
  cluster_la_.assign(owners_.size() * owners_.size(), kInf);
  for (auto& r : routers_) {
    r->next_seq_.assign(owners_.size(), 0);
  }
}

void ShardEngine::set_cluster_lookahead(std::uint32_t from, std::uint32_t to,
                                        SimDuration lookahead) {
  L3_EXPECTS(from < owners_.size() && to < owners_.size());
  L3_EXPECTS(lookahead >= 0.0);
  cluster_la_[from * owners_.size() + to] = lookahead;
}

SimDuration ShardEngine::cluster_lookahead(std::uint32_t from,
                                           std::uint32_t to) const {
  L3_EXPECTS(from < owners_.size() && to < owners_.size());
  return cluster_la_[from * owners_.size() + to];
}

SimDuration ShardEngine::shard_lookahead(std::size_t from,
                                         std::size_t to) const {
  L3_EXPECTS(from < shard_count_ && to < shard_count_);
  SimDuration la = kInf;
  const std::size_t n = owners_.size();
  for (std::size_t a = 0; a < n; ++a) {
    if (owners_[a] != from) continue;
    for (std::size_t b = 0; b < n; ++b) {
      if (owners_[b] != to) continue;
      la = std::min(la, cluster_la_[a * n + b]);
    }
  }
  return la;
}

void ShardEngine::prepare() {
  shard_la_.assign(shard_count_ * shard_count_, kInf);
  producers_.assign(shard_count_, {});
  consumers_.assign(shard_count_, {});
  max_window_.assign(shard_count_, kInf);
  for (std::size_t i = 0; i < shard_count_; ++i) {
    for (std::size_t j = 0; j < shard_count_; ++j) {
      if (i == j) continue;
      const SimDuration la = shard_lookahead(i, j);
      // Zero cross-shard lookahead deadlocks the barrier: neither side
      // could ever advance past the other's horizon.
      L3_EXPECTS(!(std::isfinite(la) && la <= 0.0));
      shard_la_[i * shard_count_ + j] = la;
      if (std::isfinite(la)) {
        consumers_[i].push_back(j);
        producers_[j].push_back(i);
        max_window_[j] = std::min(max_window_[j], la);
      }
    }
  }
  for (std::size_t s = 0; s < shard_count_; ++s) {
    slots_[s].horizon.store(0.0, std::memory_order_relaxed);
    slots_[s].parked.store(false, std::memory_order_relaxed);
  }
  aborted_ = false;
  first_error_ = nullptr;
}

void ShardEngine::run(const std::function<void(std::size_t)>& body) {
  prepare();
  // Shard 0 runs on the calling thread, preserving any thread-local
  // bindings (obs recorder, log context) the caller set up around it.
  std::vector<std::thread> threads;
  threads.reserve(shard_count_ - 1);
  for (std::size_t s = 1; s < shard_count_; ++s) {
    threads.emplace_back([this, s, &body] { run_shard(s, body); });
  }
  run_shard(0, body);
  for (auto& t : threads) t.join();
  if (first_error_) std::rethrow_exception(first_error_);
}

void ShardEngine::run_shard(std::size_t shard,
                            const std::function<void(std::size_t)>& body) {
  try {
    body(shard);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      aborted_ = true;
    }
    cv_.notify_all();
  }
  // Idle, finished or failed alike: this shard owes nothing more, so peers
  // must never wait on it again.
  publish(shard, kInf);
}

void ShardEngine::sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborted_) throw ContractViolation("barrier", "peer shard failed",
                                        __FILE__, __LINE__);
  const std::uint64_t generation = sync_generation_;
  if (++sync_waiting_ == shard_count_) {
    sync_waiting_ = 0;
    ++sync_generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return sync_generation_ != generation || aborted_; });
  if (aborted_ && sync_generation_ == generation) {
    throw ContractViolation("barrier", "peer shard failed", __FILE__,
                            __LINE__);
  }
}

SimTime ShardEngine::safe_bound(std::size_t shard,
                                std::memory_order order) const {
  SimTime safe = kInf;
  for (const std::size_t j : producers_[shard]) {
    safe = std::min(safe, slots_[j].horizon.load(order) +
                              shard_la_[j * shard_count_ + shard]);
  }
  return safe;
}

SimTime ShardEngine::acquire(std::size_t shard, SimTime committed) {
  L3_EXPECTS(shard < shard_count_);
  BarrierStats& stats = slots_[shard].stats;
  ++stats.windows;
  // Acquire loads pair with publish()'s release stores: a horizon seen here
  // makes the publisher's pre-publish flushes visible to drain_commit().
  SimTime safe = safe_bound(shard, std::memory_order_acquire);
  if (safe <= committed) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; spin_ && i < kSpinChecks && safe <= committed; ++i) {
      cpu_relax();
      safe = safe_bound(shard, std::memory_order_acquire);
    }
    if (safe > committed) {
      ++stats.spin_acquires;
    } else {
      ++stats.parks;
      safe = park(shard, committed);
    }
    stats.wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  // A shard one lookahead behind its peer sees a bound two lookaheads out.
  // Running all of it before publishing idles the waiting peer for the whole
  // window, and two shards then alternate instead of overlapping; capping
  // the window at one lookahead releases the peer halfway and puts both back
  // in phase. Once every producer is done (+inf) the final window is
  // uncapped.
  if (std::isfinite(safe)) {
    safe = std::min(safe, committed + max_window_[shard]);
  }
  return safe;
}

SimTime ShardEngine::park(std::size_t shard, SimTime committed) {
  Slot& slot = slots_[shard];
  std::unique_lock<std::mutex> lock(mu_);
  // Dekker handshake with publish(): raise the flag, then re-read the
  // horizons; the publisher stores its horizon, then reads the flag. With
  // all four accesses seq_cst at least one side sees the other, so either
  // this check sees the new horizon or the publisher sees the flag, takes
  // mu_ and notifies — which cannot slip between the check below and the
  // wait, since both happen with mu_ held.
  slot.parked.store(true, std::memory_order_seq_cst);
  SimTime safe = kInf;
  slot.wake.wait(lock, [&] {
    safe = safe_bound(shard, std::memory_order_seq_cst);
    return safe > committed;
  });
  slot.parked.store(false, std::memory_order_relaxed);
  return safe;
}

void ShardEngine::publish(std::size_t shard, SimTime horizon) {
  L3_EXPECTS(shard < shard_count_);
  std::atomic<SimTime>& h = slots_[shard].horizon;
  L3_EXPECTS(horizon >= h.load(std::memory_order_relaxed));
  // seq_cst is a release store (flush-before-publish) that also takes part
  // in park()'s handshake.
  h.store(horizon, std::memory_order_seq_cst);
  for (const std::size_t c : consumers_[shard]) {
    if (!slots_[c].parked.load(std::memory_order_seq_cst)) continue;
    // Taking mu_ orders this wake after the parker's check-then-wait.
    { const std::lock_guard<std::mutex> lock(mu_); }
    slots_[c].wake.notify_one();
  }
}

MailboxStats ShardEngine::mailbox_stats() const {
  MailboxStats total;
  for (const auto& r : routers_) total += r->mailbox_stats();
  return total;
}

BarrierStats ShardEngine::barrier_stats() const {
  BarrierStats total;
  for (std::size_t s = 0; s < shard_count_; ++s) total += slots_[s].stats;
  return total;
}

}  // namespace l3::sim
