// l3::obs flight recorder: ring wraparound accounting, deterministic
// counter-shard merges (any bind/thread interleaving sums to the same
// snapshot), gauge last-writer-wins, exact scope counts with sampled
// timing, the bounded wall-sample reservoir, ProfileBlock merge semantics,
// and counter-track delta suppression. Everything here drives the
// always-compiled Recorder API directly, so the suite passes identically
// under L3_OBS=OFF builds.
#include "l3/obs/recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace l3::obs {
namespace {

Shard* bound_shard() {
  Shard* shard = local_shard();
  EXPECT_NE(shard, nullptr);
  return shard;
}

TEST(ObsRecorder, UnboundThreadHasNoShard) {
  EXPECT_EQ(local_shard(), nullptr);
  // ScopedTimer on an unbound thread is a no-op, not a crash.
  { ScopedTimer timer(ScopeId::kP2cPick); }
}

TEST(ObsRecorder, BindRestoresPreviousShardOnExit) {
  Recorder recorder;
  EXPECT_EQ(local_shard(), nullptr);
  {
    ScopedRecorderBind outer(recorder);
    Shard* outer_shard = bound_shard();
    {
      ScopedRecorderBind inner(recorder);
      EXPECT_NE(local_shard(), outer_shard);  // fresh shard per bind
    }
    EXPECT_EQ(local_shard(), outer_shard);
  }
  EXPECT_EQ(local_shard(), nullptr);
}

TEST(ObsRecorder, RingKeepsAllEventsBelowCapacity) {
  RecorderConfig config;
  config.ring_capacity = 4;
  Recorder recorder(config);
  ScopedRecorderBind bind(recorder);
  Shard* shard = bound_shard();
  for (int i = 1; i <= 3; ++i) {
    shard->event(Domain::kMesh, static_cast<SimTime>(i),
                 EventCode::kPickerRebuild, static_cast<std::uint32_t>(i),
                 i * 10.0);
  }
  const Snapshot snapshot = recorder.snapshot();
  const auto& ring = snapshot.rings[static_cast<std::size_t>(Domain::kMesh)];
  EXPECT_EQ(ring.domain, "mesh");
  EXPECT_EQ(ring.recorded, 3u);
  EXPECT_EQ(ring.dropped, 0u);
  ASSERT_EQ(ring.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(ring.events[i].time, static_cast<double>(i + 1));
    EXPECT_EQ(ring.events[i].arg, i + 1);
  }
}

TEST(ObsRecorder, RingWraparoundKeepsNewestDropsOldest) {
  RecorderConfig config;
  config.ring_capacity = 4;
  Recorder recorder(config);
  ScopedRecorderBind bind(recorder);
  Shard* shard = bound_shard();
  for (int i = 1; i <= 7; ++i) {
    shard->event(Domain::kMesh, static_cast<SimTime>(i),
                 EventCode::kTimeoutFired, static_cast<std::uint32_t>(i),
                 i * 10.0);
  }
  const Snapshot snapshot = recorder.snapshot();
  const auto& ring = snapshot.rings[static_cast<std::size_t>(Domain::kMesh)];
  EXPECT_EQ(ring.recorded, 7u);
  EXPECT_EQ(ring.dropped, 3u);
  ASSERT_EQ(ring.events.size(), 4u);
  // Oldest-to-newest survivors: events 4..7.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ring.events[i].time, static_cast<double>(i + 4));
    EXPECT_EQ(ring.events[i].arg, i + 4);
    EXPECT_DOUBLE_EQ(ring.events[i].value, (i + 4) * 10.0);
  }
  // Other domains untouched.
  EXPECT_EQ(snapshot.rings[static_cast<std::size_t>(Domain::kSim)].recorded,
            0u);
}

TEST(ObsRecorder, ZeroCapacityDisablesRings) {
  RecorderConfig config;
  config.ring_capacity = 0;
  Recorder recorder(config);
  ScopedRecorderBind bind(recorder);
  bound_shard()->event(Domain::kChaos, 1.0, EventCode::kFaultBegin, 1, 0.0);
  const Snapshot snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.rings[static_cast<std::size_t>(Domain::kChaos)].recorded,
            0u);
}

TEST(ObsRecorder, CounterMergeSumsAcrossSequentialBinds) {
  Recorder recorder;
  {
    ScopedRecorderBind bind(recorder);
    bound_shard()->add(CounterId::kMeshRequests, 3);
  }
  {
    ScopedRecorderBind bind(recorder);
    bound_shard()->add(CounterId::kMeshRequests, 4);
    bound_shard()->add(CounterId::kSimEvents, 1);
  }
  const Snapshot snapshot = recorder.snapshot();
  EXPECT_EQ(
      snapshot.counters[static_cast<std::size_t>(CounterId::kMeshRequests)]
          .value,
      7u);
  EXPECT_EQ(
      snapshot.counters[static_cast<std::size_t>(CounterId::kSimEvents)].value,
      1u);
  EXPECT_EQ(
      snapshot.counters[static_cast<std::size_t>(CounterId::kMeshRequests)]
          .name,
      "rt.counter.mesh.requests");
}

// The determinism contract the Report JSON `profile` block leans on: the
// merged counters depend only on what was recorded, not on which thread
// recorded it or in what interleaving. Run the same workload twice with
// opposite thread launch orders and require identical profiles.
TEST(ObsRecorder, CounterMergeDeterministicAcrossThreadInterleavings) {
  auto run = [](bool reversed) {
    Recorder recorder;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      const int worker = reversed ? 3 - t : t;
      threads.emplace_back([&recorder, worker] {
        ScopedRecorderBind bind(recorder);
        Shard* shard = local_shard();
        for (int i = 0; i < 1000 * (worker + 1); ++i) {
          shard->add(CounterId::kTsdbSamples, 1);
        }
        shard->add(CounterId::kControllerTicks,
                   static_cast<std::uint64_t>(worker));
      });
    }
    for (auto& thread : threads) thread.join();
    return recorder.profile();
  };
  const ProfileBlock a = run(false);
  const ProfileBlock b = run(true);
  EXPECT_EQ(a.counters[static_cast<std::size_t>(CounterId::kTsdbSamples)],
            10000u);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.scope_count, b.scope_count);
  EXPECT_EQ(a.ring_recorded, b.ring_recorded);
}

TEST(ObsRecorder, GaugeLastWriterWins) {
  Recorder recorder;
  {
    ScopedRecorderBind bind(recorder);
    bound_shard()->set_gauge(GaugeId::kMeshInflight, 5.0);
  }
  {
    ScopedRecorderBind bind(recorder);
    bound_shard()->set_gauge(GaugeId::kMeshInflight, 7.0);
  }
  const Snapshot snapshot = recorder.snapshot();
  EXPECT_DOUBLE_EQ(
      snapshot.gauges[static_cast<std::size_t>(GaugeId::kMeshInflight)].value,
      7.0);
}

TEST(ObsRecorder, ScopeCountsExactTimingSampled) {
  Recorder recorder;
  ScopedRecorderBind bind(recorder);
  for (int i = 0; i < 130; ++i) {
    ScopedTimer timer(ScopeId::kP2cPick, 6);  // time every 64th entry
  }
  const ProfileBlock profile = recorder.profile();
  const auto scope = static_cast<std::size_t>(ScopeId::kP2cPick);
  EXPECT_EQ(profile.scope_count[scope], 130u);   // counts always exact
  EXPECT_EQ(profile.scope_timed[scope], 3u);     // entries 0, 64, 128
  const Snapshot snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.scopes[scope].count, 130u);
  EXPECT_EQ(snapshot.scopes[scope].timed, 3u);
  EXPECT_GE(snapshot.scopes[scope].wall_ns_total, 0.0);
}

TEST(ObsRecorder, WallSampleReservoirStaysBounded) {
  // Sample i takes the value i, so the kept samples show the decimation:
  // every stride-th sample of the run, the stride doubling each time the
  // buffer fills. Past the first fill at least half the buffer stays in
  // use, so the stride is at most n / (kMaxWallSamples / 2).
  Recorder recorder;
  ScopedRecorderBind bind(recorder);
  const auto scope = static_cast<std::size_t>(ScopeId::kTsdbAppend);
  const std::size_t total = 3 * kMaxWallSamples + 1;
  for (std::size_t n = 1; n <= total; ++n) {
    bound_shard()->record_scope_ns(ScopeId::kTsdbAppend,
                                   static_cast<double>(n - 1));
    if (n % 61 != 0 && n % kMaxWallSamples > 1 && n != total) continue;
    const Snapshot::Scope got = recorder.snapshot().scopes[scope];
    const double last = static_cast<double>(n - 1);
    const double max_stride =
        std::max(1.0, static_cast<double>(n) / (kMaxWallSamples / 2));
    EXPECT_EQ(got.timed, n);  // timing totals stay exact
    EXPECT_DOUBLE_EQ(got.wall_ns_max, last);
    ASSERT_LE(got.wall_ns.count, kMaxWallSamples) << "n=" << n;
    EXPECT_GE(got.wall_ns.count, std::min(n, kMaxWallSamples / 2))
        << "n=" << n;
    // Uniform coverage: the kept samples reach the run's end and centre on
    // its middle.
    EXPECT_GE(got.wall_ns.max, last - max_stride) << "n=" << n;
    EXPECT_NEAR(got.wall_ns.p50, last / 2.0, max_stride) << "n=" << n;
  }
}

TEST(ObsRecorder, ProfileBlockMergeSumsElementWise) {
  Recorder first;
  {
    ScopedRecorderBind bind(first);
    bound_shard()->add(CounterId::kMeshRequests, 10);
    bound_shard()->event(Domain::kSim, 1.0, EventCode::kControllerTick, 0,
                         0.0);
    ScopedTimer timer(ScopeId::kControllerManage);
  }
  Recorder second;
  {
    ScopedRecorderBind bind(second);
    bound_shard()->add(CounterId::kMeshRequests, 32);
  }
  ProfileBlock merged = first.profile();
  EXPECT_EQ(merged.cells, 1u);
  merged.merge(second.profile());
  EXPECT_EQ(merged.cells, 2u);
  EXPECT_EQ(
      merged.counters[static_cast<std::size_t>(CounterId::kMeshRequests)],
      42u);
  EXPECT_EQ(merged.ring_recorded[static_cast<std::size_t>(Domain::kSim)], 1u);
  EXPECT_EQ(merged.scope_count[static_cast<std::size_t>(
                ScopeId::kControllerManage)],
            1u);
  EXPECT_EQ(merged.active_subsystems(), 1u);
  EXPECT_FALSE(merged.empty());
  EXPECT_TRUE(ProfileBlock{}.empty());
}

TEST(ObsRecorder, TrackSamplingDeltaSuppresses) {
  Recorder recorder;
  ScopedRecorderBind bind(recorder);
  bound_shard()->add(CounterId::kSimEvents, 5);
  recorder.sample_tracks(1.0);
  recorder.sample_tracks(2.0);  // nothing changed: no new samples
  bound_shard()->add(CounterId::kSimEvents, 3);
  recorder.sample_tracks(3.0);
  const Snapshot snapshot = recorder.snapshot();
  ASSERT_EQ(snapshot.tracks.size(), 2u);
  EXPECT_DOUBLE_EQ(snapshot.tracks[0].time, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.tracks[0].value, 5.0);
  EXPECT_FALSE(snapshot.tracks[0].is_gauge);
  EXPECT_DOUBLE_EQ(snapshot.tracks[1].time, 3.0);
  EXPECT_DOUBLE_EQ(snapshot.tracks[1].value, 8.0);
  EXPECT_EQ(snapshot.tracks_dropped, 0u);
}

TEST(ObsRecorder, TrackSamplingBoundedByConfig) {
  RecorderConfig config;
  config.max_track_samples = 2;
  Recorder recorder(config);
  ScopedRecorderBind bind(recorder);
  for (int i = 1; i <= 4; ++i) {
    bound_shard()->add(CounterId::kSimEvents, 1);
    recorder.sample_tracks(static_cast<SimTime>(i));
  }
  const Snapshot snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.tracks.size(), 2u);
  EXPECT_EQ(snapshot.tracks_dropped, 2u);
}

// The macro surface: with L3_OBS=ON these must reach the bound shard; with
// L3_OBS=OFF they expand to ((void)0) and the recorder stays empty either
// way when nothing is bound.
TEST(ObsRecorder, MacrosReachBoundShardWhenEnabled) {
  Recorder recorder;
  {
    ScopedRecorderBind bind(recorder);
    L3_OBS_COUNT(kMeshTimeouts, 2);
    L3_OBS_GAUGE(kTsdbSeries, 9.0);
    L3_OBS_EVENT(kChaos, kFaultBegin, 1.5, 3, 0.25);
  }
  const ProfileBlock profile = recorder.profile();
  const auto timeouts =
      profile.counters[static_cast<std::size_t>(CounterId::kMeshTimeouts)];
  const auto chaos_events =
      profile.ring_recorded[static_cast<std::size_t>(Domain::kChaos)];
#if L3_OBS_ENABLED
  EXPECT_EQ(timeouts, 2u);
  EXPECT_EQ(chaos_events, 1u);
#else
  EXPECT_EQ(timeouts, 0u);
  EXPECT_EQ(chaos_events, 0u);
#endif
}

}  // namespace
}  // namespace l3::obs
