// l3::obs — the system watching itself. Two tiers, following the RT-vs-audit
// metrics discipline (SNIPPETS.md, Continuity catalog):
//
//   * RT flight recorder — bounded per-domain ring buffers of structured
//     events (`rt.event.*`) plus counters (`rt.counter.*`) and gauges
//     (`rt.gauge.*`) held in cache-line-padded thread-local shards. RT
//     signals are allowed detail but must stay bounded: fixed ring capacity,
//     fixed id spaces (enums, never strings), no per-request series.
//   * Self-profiler — scoped wall-clock timers over the simulator's own hot
//     paths (event dispatch, picker rebuilds, picks, TSDB writes/compacts,
//     scraper snapshots, controller manage, chaos transitions, timeout-ring
//     sweeps) aggregating into per-subsystem summaries via the radix-sort
//     percentile machinery (common/stats.h).
//
// Threading/determinism contract: a Recorder is written through thread-local
// shards (one per ScopedRecorderBind), so recording is lock- and atomic-free
// on the hot path (gauge sets take one relaxed fetch_add for the merge
// order). Counter totals are sums of per-shard values — identical for every
// thread interleaving. snapshot()/profile() require the writers to be
// quiescent (after the simulation barrier), like the experiment runner's
// result collection. Everything exported into the deterministic bench
// surfaces (the Report JSON `profile` block) is a pure function of the
// simulation: counts, ring totals, sim-time-stamped events — never wall
// time. Wall-clock timings are audit-only (stderr tables, Prometheus audit
// families, Chrome counter tracks live in sim time).
//
// Compile-time gate: configuring with -DL3_OBS=OFF defines L3_OBS_ENABLED=0
// and every L3_OBS_* macro below expands to nothing — the instrumented
// binaries are behaviourally byte-identical (enforced by scripts/check.sh
// against the fig golden outputs). The Recorder class itself stays compiled
// so tests and tools work in both configurations.
#pragma once

#include "l3/common/stats.h"
#include "l3/common/time.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#ifndef L3_OBS_ENABLED
#define L3_OBS_ENABLED 1
#endif

namespace l3::obs {

// ---------------------------------------------------------------------------
// Fixed id spaces. RT signals are enums, never strings: the cardinality is
// bounded at compile time and a hot-path record is an array index.

/// Profiled subsystems (one scoped timer each). Order is the export order.
enum class ScopeId : std::uint8_t {
  kSimDispatch = 0,   ///< one EventQueue::dispatch_batch drain (run_until/step)
  kPickerRebuild,     ///< Proxy cumulative-weight table rebuild
  kWeightedPick,      ///< Proxy::pick_weighted
  kP2cPick,           ///< Proxy::pick_p2c
  kTimeoutSweep,      ///< Proxy timeout-ring timer sweep
  kProxyCost,         ///< Proxy cost-model admission (pool + CPU stage)
  kTsdbAppend,        ///< TimeSeriesDb::append / append_histogram
  kTsdbCompact,       ///< TimeSeriesDb::compact (slow path only)
  kScraperScrape,     ///< Scraper::scrape_once
  kScraperPlan,       ///< Scraper::build_plan (registry-version rebuilds)
  kControllerManage,  ///< L3Controller per-split control tick
  kControllerGather,  ///< fused per-split TSDB signal gather
  kChaosTransition,   ///< FaultInjector begin/end_fault
  kCount
};
inline constexpr std::size_t kScopeCount =
    static_cast<std::size_t>(ScopeId::kCount);
std::string_view scope_name(ScopeId id);  ///< e.g. "sim.dispatch"

/// RT counters (`rt.counter.*`), monotone within a run.
enum class CounterId : std::uint8_t {
  kSimEvents = 0,      ///< events dispatched
  kSimBatches,         ///< dispatch batches drained (>=1 event each)
  kMeshRequests,       ///< proxy sends
  kMeshTimeouts,       ///< requests answered by the timeout path
  kMeshHandshakes,     ///< connections opened (mTLS handshake paid)
  kMeshPoolHits,       ///< checkouts served by a warm pooled connection
  kMeshConnExpired,    ///< idle connections pruned by idle_timeout
  kTsdbSamples,        ///< scalar + histogram samples appended
  kScraperSeries,      ///< series copied registry -> TSDB
  kControllerTicks,    ///< control-loop ticks
  kWeightUpdates,      ///< split weight vectors actually applied
  kChaosTransitions,   ///< fault begin/end transitions fired
  kCount
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(CounterId::kCount);
std::string_view counter_name(CounterId id);  ///< e.g. "rt.counter.sim.events"

/// RT gauges (`rt.gauge.*`), last-write-wins.
enum class GaugeId : std::uint8_t {
  kSimPendingEvents = 0,  ///< event-queue depth (sampled)
  kMeshInflight,          ///< proxy in-flight calls (refresh-path sampled)
  kMeshProxyQueueDelay,   ///< last cost-stage admission wait (saturation)
  kTsdbSeries,            ///< non-empty TSDB series
  kCount
};
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(GaugeId::kCount);
std::string_view gauge_name(GaugeId id);  ///< e.g. "rt.gauge.sim.pending_events"

/// Flight-recorder domains — one bounded event ring each.
enum class Domain : std::uint8_t {
  kSim = 0,
  kMesh,
  kMetrics,
  kController,
  kChaos,
  kCount
};
inline constexpr std::size_t kDomainCount =
    static_cast<std::size_t>(Domain::kCount);
std::string_view domain_name(Domain d);  ///< e.g. "sim"

/// Structured-event codes (`rt.event.*`).
enum class EventCode : std::uint16_t {
  kPickerRebuild = 0,    ///< arg = availability mask, value = table size
  kAvailabilityRefresh,  ///< arg = availability mask, value = popcount
  kTimeoutFired,         ///< arg = backend index, value = timeout seconds
  kHandshake,            ///< arg = backend index, value = handshake cost (s)
  kScrape,               ///< arg = targets scraped, value = series copied
  kCompact,              ///< arg = 0, value = live series after compaction
  kControllerTick,       ///< arg = managed splits, value = total RPS sample
  kFaultBegin,           ///< arg = FaultKind, value = fault start (sim s)
  kFaultEnd,             ///< arg = FaultKind, value = fault end (sim s)
};
std::string_view event_code_name(EventCode code);  ///< e.g. "rt.event.mesh.picker_rebuild"

/// One flight-recorder entry: sim-time-stamped, fixed-size, POD.
struct RtEvent {
  SimTime time = 0.0;
  EventCode code = EventCode::kPickerRebuild;
  std::uint16_t reserved = 0;
  std::uint32_t arg = 0;
  double value = 0.0;
};
static_assert(sizeof(RtEvent) <= 24, "RtEvent must stay small and POD");

// ---------------------------------------------------------------------------
// Configuration & snapshots.

struct RecorderConfig {
  /// Ring capacity per domain (events kept; older entries overwritten).
  std::size_t ring_capacity = 1024;
  /// Bounded per-scope wall-sample buffer feeding the radix summaries; when
  /// full the buffer decimates (keeps every other sample, doubles the
  /// stride) so memory stays fixed while coverage stays uniform.
  std::size_t max_wall_samples = 2048;
  /// Counter-track buffer bound (samples across all series).
  std::size_t max_track_samples = 65536;
  /// Time every 2^shift-th entry of SAMPLED scopes (counts stay exact).
  unsigned timer_sample_shift = 6;
};

/// One Chrome counter-track sample (recorded by Recorder::sample_tracks).
struct TrackSample {
  SimTime time = 0.0;
  bool is_gauge = false;
  std::uint16_t id = 0;  ///< CounterId or GaugeId
  double value = 0.0;
};

/// Merged, read-only view of a Recorder (writers must be quiescent).
struct Snapshot {
  struct Scope {
    std::string_view name;
    std::uint64_t count = 0;        ///< entries (deterministic)
    std::uint64_t timed = 0;        ///< entries that took a wall timestamp
    double wall_ns_total = 0.0;     ///< audit-only
    double wall_ns_max = 0.0;       ///< audit-only
    LatencySummary wall_ns;         ///< radix-summarized timed samples
  };
  struct Counter {
    std::string_view name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string_view name;
    double value = 0.0;
  };
  struct Ring {
    std::string_view domain;
    std::uint64_t recorded = 0;  ///< total events seen
    std::uint64_t dropped = 0;   ///< overwritten by wraparound
    std::vector<RtEvent> events; ///< oldest-to-newest surviving entries
  };
  std::array<Scope, kScopeCount> scopes{};
  std::array<Counter, kCounterCount> counters{};
  std::array<Gauge, kGaugeCount> gauges{};
  std::array<Ring, kDomainCount> rings{};
  std::vector<TrackSample> tracks;
  std::uint64_t tracks_dropped = 0;
};

/// Dispatch batch sizes are folded into a log2-bucketed histogram: bucket i
/// covers sizes [2^i, 2^(i+1)-1], the last bucket is open-ended. 8 buckets
/// span 1..128+, far beyond any sane dispatch horizon.
inline constexpr std::size_t kBatchBucketCount = 8;
std::string_view batch_bucket_label(std::size_t bucket);  ///< e.g. "4-7"

/// The deterministic per-run digest that rides in workload::RunResult and is
/// merged (in grid order) into the Report JSON `profile` block. Only the
/// count fields are serialized; the wall totals feed audit output (stderr
/// tables) and are never written into jobs-invariance-diffed surfaces.
struct ProfileBlock {
  std::uint64_t cells = 0;  ///< runs merged into this block
  std::array<std::uint64_t, kScopeCount> scope_count{};
  std::array<std::uint64_t, kScopeCount> scope_timed{};
  std::array<double, kScopeCount> scope_wall_ns{};
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kDomainCount> ring_recorded{};
  std::array<std::uint64_t, kDomainCount> ring_dropped{};
  std::array<std::uint64_t, kBatchBucketCount> batch_hist{};

  bool empty() const { return cells == 0; }
  /// Number of subsystems with at least one recorded entry.
  std::size_t active_subsystems() const;
  /// Element-wise accumulate (callers merge in grid order).
  void merge(const ProfileBlock& other);
};

// ---------------------------------------------------------------------------
// Shard — the thread-local write surface. One per ScopedRecorderBind; padded
// so two binding threads never share a cache line.

class Recorder;

class alignas(64) Shard {
 public:
  void add(CounterId id, std::uint64_t n) {
    counters_[static_cast<std::size_t>(id)] += n;
  }
  void set_gauge(GaugeId id, double value);

  /// Folds one dispatch-batch size into the log2 histogram and bumps the
  /// batch counter (one call per drained batch, not per event).
  void record_batch(std::size_t events) {
    counters_[static_cast<std::size_t>(CounterId::kSimBatches)] += 1;
    std::size_t bucket = 0;
    for (std::size_t v = events >> 1; v != 0 && bucket + 1 < kBatchBucketCount;
         v >>= 1) {
      ++bucket;
    }
    batch_hist_[bucket] += 1;
  }

  void event(Domain domain, SimTime time, EventCode code, std::uint32_t arg,
             double value) {
    EventRing& ring = rings_[static_cast<std::size_t>(domain)];
    if (ring.buf.empty()) return;  // ring_capacity == 0: events disabled
    ring.buf[static_cast<std::size_t>(ring.total % ring.buf.size())] =
        RtEvent{time, code, 0, arg, value};
    ++ring.total;
  }

  // Profiler entry points (used by ScopedTimer).
  struct ScopeStats {
    std::uint64_t count = 0;
    std::uint64_t timed = 0;
    double total_ns = 0.0;
    double max_ns = 0.0;
    std::vector<double> samples;     ///< bounded, stride-decimated
    std::size_t stride = 1;          ///< current decimation stride
    std::size_t stride_phase = 0;    ///< samples seen since last kept
  };
  /// Returns whether this entry should take wall timestamps.
  bool enter_scope(ScopeId id, unsigned sample_shift) {
    ScopeStats& s = scopes_[static_cast<std::size_t>(id)];
    const std::uint64_t n = s.count++;
    return (n & ((1ull << sample_shift) - 1)) == 0;
  }
  void record_scope_ns(ScopeId id, double ns);

 private:
  friend class Recorder;
  explicit Shard(const RecorderConfig& config, Recorder* owner);

  struct EventRing {
    std::vector<RtEvent> buf;
    std::uint64_t total = 0;
  };

  Recorder* owner_;
  std::size_t max_wall_samples_;
  std::array<std::uint64_t, kCounterCount> counters_{};
  struct GaugeCell {
    double value = 0.0;
    std::uint64_t seq = 0;  ///< recorder-wide set order; 0 = never set
  };
  std::array<GaugeCell, kGaugeCount> gauges_{};
  std::array<std::uint64_t, kBatchBucketCount> batch_hist_{};
  std::array<ScopeStats, kScopeCount> scopes_{};
  std::array<EventRing, kDomainCount> rings_{};
};

// ---------------------------------------------------------------------------
// Recorder — owns the shards, merges them, samples counter tracks.

class Recorder {
 public:
  explicit Recorder(RecorderConfig config = {});
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  const RecorderConfig& config() const { return config_; }

  /// Appends one counter-track sample per counter/gauge whose value changed
  /// since the previous call (delta suppression keeps Chrome traces small).
  /// Call from the simulation thread at a fixed sim-time cadence.
  void sample_tracks(SimTime now);

  /// Merged view across shards. Writers must be quiescent.
  Snapshot snapshot() const;

  /// The deterministic digest (counts only; see ProfileBlock).
  ProfileBlock profile() const;

 private:
  friend class ScopedRecorderBind;
  friend class Shard;
  Shard& make_shard();

  RecorderConfig config_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> gauge_seq_{0};
  std::vector<TrackSample> tracks_;
  std::uint64_t tracks_dropped_ = 0;
  std::array<double, kCounterCount> last_track_counter_{};
  std::array<double, kGaugeCount> last_track_gauge_{};
  bool tracks_sampled_once_ = false;
};

// ---------------------------------------------------------------------------
// Thread binding (mirrors common/logging.h's ScopedLogBind).

namespace detail {
// Header-inline so local_shard() compiles to a direct TLS load at every
// macro site — the hot path touches this ~10 times per simulated request,
// and the previous out-of-line accessor cost a call each time.
inline thread_local Shard* tl_shard = nullptr;
inline Shard*& tl_shard_slot() noexcept { return tl_shard; }
}  // namespace detail

/// The shard bound to the current thread, or nullptr when no recorder is
/// bound (every L3_OBS_* macro is then a single branch).
inline Shard* local_shard() noexcept { return detail::tl_shard_slot(); }

/// RAII binding of a Recorder to the current thread. Each bind owns a fresh
/// shard (registered with the recorder for its lifetime); bindings nest.
class ScopedRecorderBind {
 public:
  explicit ScopedRecorderBind(Recorder& recorder);
  ~ScopedRecorderBind();
  ScopedRecorderBind(const ScopedRecorderBind&) = delete;
  ScopedRecorderBind& operator=(const ScopedRecorderBind&) = delete;

 private:
  Shard* prev_;
};

/// Scoped wall timer: counts every entry, timestamps every 2^shift-th (the
/// count stays exact and deterministic; the timing cost amortizes away on
/// hot scopes). shift 0 = time every entry (cheap, low-rate scopes).
class ScopedTimer {
 public:
  explicit ScopedTimer(ScopeId id, unsigned sample_shift = 0) : id_(id) {
    shard_ = local_shard();
    if (shard_ == nullptr) return;
    if (shard_->enter_scope(id, sample_shift)) start_ns_ = now_ns();
  }
  ~ScopedTimer() {
    if (shard_ != nullptr && start_ns_ >= 0.0) {
      shard_->record_scope_ns(id_, now_ns() - start_ns_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  static double now_ns() noexcept;

  Shard* shard_;
  ScopeId id_;
  double start_ns_ = -1.0;
};

}  // namespace l3::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. With L3_OBS=OFF these expand to nothing: no TLS
// read, no branch, no codegen — the zero-cost contract check.sh verifies.

#if L3_OBS_ENABLED

#define L3_OBS_COUNT(id, n)                                      \
  do {                                                           \
    if (::l3::obs::Shard* l3_obs_shard = ::l3::obs::local_shard()) \
      l3_obs_shard->add(::l3::obs::CounterId::id, (n));          \
  } while (0)

#define L3_OBS_BATCH(events)                                     \
  do {                                                           \
    if (::l3::obs::Shard* l3_obs_shard = ::l3::obs::local_shard()) \
      l3_obs_shard->record_batch((events));                      \
  } while (0)

#define L3_OBS_GAUGE(id, value)                                  \
  do {                                                           \
    if (::l3::obs::Shard* l3_obs_shard = ::l3::obs::local_shard()) \
      l3_obs_shard->set_gauge(::l3::obs::GaugeId::id, (value));  \
  } while (0)

#define L3_OBS_EVENT(domain, code, time, arg, value)               \
  do {                                                             \
    if (::l3::obs::Shard* l3_obs_shard = ::l3::obs::local_shard()) \
      l3_obs_shard->event(::l3::obs::Domain::domain, (time),       \
                          ::l3::obs::EventCode::code,              \
                          static_cast<std::uint32_t>(arg), (value)); \
  } while (0)

/// Timed scope, every entry timestamped (rare, coarse subsystems).
#define L3_OBS_SCOPE(var, scope) \
  ::l3::obs::ScopedTimer var(::l3::obs::ScopeId::scope)

/// Timed scope, every 64th entry timestamped (hot subsystems).
#define L3_OBS_SCOPE_SAMPLED(var, scope) \
  ::l3::obs::ScopedTimer var(::l3::obs::ScopeId::scope, 6)

#else  // !L3_OBS_ENABLED

#define L3_OBS_COUNT(id, n) ((void)0)
#define L3_OBS_BATCH(events) ((void)0)
#define L3_OBS_GAUGE(id, value) ((void)0)
#define L3_OBS_EVENT(domain, code, time, arg, value) ((void)0)
#define L3_OBS_SCOPE(var, scope) ((void)0)
#define L3_OBS_SCOPE_SAMPLED(var, scope) ((void)0)

#endif  // L3_OBS_ENABLED
