#include "l3/obs/recorder.h"

#include "l3/common/assert.h"

#include <algorithm>
#include <chrono>

namespace l3::obs {

namespace {

constexpr std::array<std::string_view, kScopeCount> kScopeNames = {
    "sim.dispatch",        "mesh.picker_rebuild", "mesh.pick_weighted",
    "mesh.pick_p2c",       "mesh.timeout_sweep",  "mesh.proxy_cost",
    "tsdb.append",         "tsdb.compact",        "scraper.scrape",
    "scraper.plan",        "controller.manage",   "controller.gather",
    "chaos.transition",
};

constexpr std::array<std::string_view, kCounterCount> kCounterNames = {
    "rt.counter.sim.events",
    "rt.counter.sim.batches",
    "rt.counter.mesh.requests",
    "rt.counter.mesh.timeouts",
    "rt.counter.mesh.handshakes",
    "rt.counter.mesh.pool_hits",
    "rt.counter.mesh.conn_expired",
    "rt.counter.tsdb.samples",
    "rt.counter.scraper.series",
    "rt.counter.controller.ticks",
    "rt.counter.controller.weight_updates",
    "rt.counter.chaos.transitions",
};

constexpr std::array<std::string_view, kBatchBucketCount> kBatchBucketLabels = {
    "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+",
};

constexpr std::array<std::string_view, kGaugeCount> kGaugeNames = {
    "rt.gauge.sim.pending_events",
    "rt.gauge.mesh.inflight",
    "rt.gauge.mesh.proxy_queue_delay",
    "rt.gauge.tsdb.series",
};

constexpr std::array<std::string_view, kDomainCount> kDomainNames = {
    "sim", "mesh", "metrics", "controller", "chaos",
};

}  // namespace

std::string_view scope_name(ScopeId id) {
  const auto i = static_cast<std::size_t>(id);
  L3_EXPECTS(i < kScopeCount);
  return kScopeNames[i];
}

std::string_view counter_name(CounterId id) {
  const auto i = static_cast<std::size_t>(id);
  L3_EXPECTS(i < kCounterCount);
  return kCounterNames[i];
}

std::string_view gauge_name(GaugeId id) {
  const auto i = static_cast<std::size_t>(id);
  L3_EXPECTS(i < kGaugeCount);
  return kGaugeNames[i];
}

std::string_view domain_name(Domain d) {
  const auto i = static_cast<std::size_t>(d);
  L3_EXPECTS(i < kDomainCount);
  return kDomainNames[i];
}

std::string_view event_code_name(EventCode code) {
  switch (code) {
    case EventCode::kPickerRebuild:
      return "rt.event.mesh.picker_rebuild";
    case EventCode::kAvailabilityRefresh:
      return "rt.event.mesh.availability_refresh";
    case EventCode::kTimeoutFired:
      return "rt.event.mesh.timeout_fired";
    case EventCode::kHandshake:
      return "rt.event.mesh.handshake";
    case EventCode::kScrape:
      return "rt.event.metrics.scrape";
    case EventCode::kCompact:
      return "rt.event.metrics.compact";
    case EventCode::kControllerTick:
      return "rt.event.controller.tick";
    case EventCode::kFaultBegin:
      return "rt.event.chaos.fault_begin";
    case EventCode::kFaultEnd:
      return "rt.event.chaos.fault_end";
  }
  return "rt.event.unknown";
}

std::string_view batch_bucket_label(std::size_t bucket) {
  L3_EXPECTS(bucket < kBatchBucketCount);
  return kBatchBucketLabels[bucket];
}

// ---------------------------------------------------------------------------
// ProfileBlock

std::size_t ProfileBlock::active_subsystems() const {
  std::size_t n = 0;
  for (const std::uint64_t c : scope_count) n += (c > 0) ? 1 : 0;
  return n;
}

void ProfileBlock::merge(const ProfileBlock& other) {
  cells += other.cells;
  for (std::size_t i = 0; i < kScopeCount; ++i) {
    scope_count[i] += other.scope_count[i];
    scope_timed[i] += other.scope_timed[i];
    scope_wall_ns[i] += other.scope_wall_ns[i];
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters[i] += other.counters[i];
  }
  for (std::size_t i = 0; i < kDomainCount; ++i) {
    ring_recorded[i] += other.ring_recorded[i];
    ring_dropped[i] += other.ring_dropped[i];
  }
  for (std::size_t i = 0; i < kBatchBucketCount; ++i) {
    batch_hist[i] += other.batch_hist[i];
  }
}

// ---------------------------------------------------------------------------
// Shard

Shard::Shard(const RecorderConfig& config, Recorder* owner)
    : owner_(owner) {
  for (auto& ring : rings_) {
    ring.buf.resize(config.ring_capacity);
  }
}

void Shard::set_gauge(GaugeId id, double value) {
  GaugeCell& cell = gauges_[static_cast<std::size_t>(id)];
  cell.value = value;
  // 1-based so seq==0 means "never set"; the relaxed global order is only
  // used to pick a last-writer-wins value at merge time.
  cell.seq =
      owner_->gauge_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Shard::record_scope_ns(ScopeId id, double ns) {
  ScopeStats& s = scopes_[static_cast<std::size_t>(id)];
  ++s.timed;
  s.total_ns += ns;
  s.max_ns = std::max(s.max_ns, ns);
  // Bounded reservoir with deterministic stride decimation: when full, keep
  // every other kept sample and double the stride. Coverage stays uniform
  // over the run, memory stays O(kMaxWallSamples).
  if (s.stride_phase++ % s.stride != 0) return;
  if (s.samples.size() >= kMaxWallSamples) {
    std::vector<double> kept;
    kept.reserve(s.samples.size() / 2 + 1);
    for (std::size_t i = 0; i < s.samples.size(); i += 2) {
      kept.push_back(s.samples[i]);
    }
    s.samples = std::move(kept);
    s.stride *= 2;
    s.stride_phase = 1;  // this sample counts as the first of the new stride
  }
  s.samples.push_back(ns);
}

// ---------------------------------------------------------------------------
// Recorder

Recorder::Recorder(RecorderConfig config) : config_(config) {
  tracks_.reserve(std::min<std::size_t>(config_.max_track_samples, 4096));
}

Shard& Recorder::make_shard() {
  std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::unique_ptr<Shard>(new Shard(config_, this)));
  return *shards_.back();
}

void Recorder::sample_tracks(SimTime now) {
  // Merge counters/gauges across shards, then delta-suppress against the
  // previous sample so unchanged series add no track points. The first call
  // emits only nonzero values (keeps traces and goldens small).
  std::array<double, kCounterCount> counter_now{};
  std::array<GaugeId, kGaugeCount> gauge_ids{};
  std::array<double, kGaugeCount> gauge_now{};
  std::array<std::uint64_t, kGaugeCount> gauge_seq{};
  (void)gauge_ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) {
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        counter_now[i] += static_cast<double>(shard->counters_[i]);
      }
      for (std::size_t i = 0; i < kGaugeCount; ++i) {
        const Shard::GaugeCell& cell = shard->gauges_[i];
        if (cell.seq > gauge_seq[i]) {
          gauge_seq[i] = cell.seq;
          gauge_now[i] = cell.value;
        }
      }
    }
  }
  auto push = [&](bool is_gauge, std::size_t id, double value) {
    if (tracks_.size() >= config_.max_track_samples) {
      ++tracks_dropped_;
      return;
    }
    tracks_.push_back(
        TrackSample{now, is_gauge, static_cast<std::uint16_t>(id), value});
  };
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const bool changed = tracks_sampled_once_
                             ? counter_now[i] != last_track_counter_[i]
                             : counter_now[i] != 0.0;
    if (changed) push(false, i, counter_now[i]);
    last_track_counter_[i] = counter_now[i];
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    const bool changed = tracks_sampled_once_
                             ? gauge_now[i] != last_track_gauge_[i]
                             : gauge_seq[i] > 0;
    if (changed) push(true, i, gauge_now[i]);
    last_track_gauge_[i] = gauge_now[i];
  }
  tracks_sampled_once_ = true;
}

Snapshot Recorder::snapshot() const {
  Snapshot snap;
  for (std::size_t i = 0; i < kScopeCount; ++i) {
    snap.scopes[i].name = kScopeNames[i];
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters[i].name = kCounterNames[i];
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    snap.gauges[i].name = kGaugeNames[i];
  }
  for (std::size_t i = 0; i < kDomainCount; ++i) {
    snap.rings[i].domain = kDomainNames[i];
  }

  std::array<std::vector<double>, kScopeCount> wall_samples;
  std::array<std::uint64_t, kGaugeCount> gauge_seq{};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) {
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        snap.counters[i].value += shard->counters_[i];
      }
      for (std::size_t i = 0; i < kGaugeCount; ++i) {
        const Shard::GaugeCell& cell = shard->gauges_[i];
        if (cell.seq > gauge_seq[i]) {
          gauge_seq[i] = cell.seq;
          snap.gauges[i].value = cell.value;
        }
      }
      for (std::size_t i = 0; i < kScopeCount; ++i) {
        const Shard::ScopeStats& s = shard->scopes_[i];
        Snapshot::Scope& out = snap.scopes[i];
        out.count += s.count;
        out.timed += s.timed;
        out.wall_ns_total += s.total_ns;
        out.wall_ns_max = std::max(out.wall_ns_max, s.max_ns);
        wall_samples[i].insert(wall_samples[i].end(), s.samples.begin(),
                               s.samples.end());
      }
      for (std::size_t i = 0; i < kDomainCount; ++i) {
        const Shard::EventRing& ring = shard->rings_[i];
        Snapshot::Ring& out = snap.rings[i];
        out.recorded += ring.total;
        const std::size_t cap = ring.buf.size();
        const std::size_t kept =
            cap == 0 ? 0
                     : static_cast<std::size_t>(
                           std::min<std::uint64_t>(ring.total, cap));
        out.dropped += ring.total - kept;
        // Oldest-to-newest: when wrapped, the oldest entry sits at
        // total % cap (the next overwrite position).
        const std::size_t start =
            (ring.total > cap && cap > 0)
                ? static_cast<std::size_t>(ring.total % cap)
                : 0;
        for (std::size_t k = 0; k < kept; ++k) {
          out.events.push_back(ring.buf[(start + k) % cap]);
        }
      }
    }
    snap.tracks = tracks_;
    snap.tracks_dropped = tracks_dropped_;
  }
  // Multi-shard rings interleave arbitrarily; order by sim time for export
  // (stable sort keeps intra-shard order for equal timestamps).
  for (auto& ring : snap.rings) {
    std::stable_sort(ring.events.begin(), ring.events.end(),
                     [](const RtEvent& a, const RtEvent& b) {
                       return a.time < b.time;
                     });
  }
  for (std::size_t i = 0; i < kScopeCount; ++i) {
    if (!wall_samples[i].empty()) {
      snap.scopes[i].wall_ns = summarize(wall_samples[i]);
    }
  }
  return snap;
}

ProfileBlock Recorder::profile() const {
  ProfileBlock block;
  block.cells = 1;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < kScopeCount; ++i) {
      const Shard::ScopeStats& s = shard->scopes_[i];
      block.scope_count[i] += s.count;
      block.scope_timed[i] += s.timed;
      block.scope_wall_ns[i] += s.total_ns;
    }
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      block.counters[i] += shard->counters_[i];
    }
    for (std::size_t i = 0; i < kDomainCount; ++i) {
      const Shard::EventRing& ring = shard->rings_[i];
      block.ring_recorded[i] += ring.total;
      const std::uint64_t cap = ring.buf.size();
      block.ring_dropped[i] += ring.total > cap ? ring.total - cap : 0;
    }
    for (std::size_t i = 0; i < kBatchBucketCount; ++i) {
      block.batch_hist[i] += shard->batch_hist_[i];
    }
  }
  return block;
}

// ---------------------------------------------------------------------------
// Thread binding (the TLS slot itself is header-inline; see recorder.h)

ScopedRecorderBind::ScopedRecorderBind(Recorder& recorder) {
  Shard*& slot = detail::tl_shard_slot();
  prev_ = slot;
  slot = &recorder.make_shard();
}

ScopedRecorderBind::~ScopedRecorderBind() {
  detail::tl_shard_slot() = prev_;
}

double ScopedTimer::now_ns() noexcept {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace l3::obs
