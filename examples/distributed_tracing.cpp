// Example: distributed request tracing + the controller decision journal on
// the DeathStarBench hotel-reservation application.
//
// Three clusters, the full application in each, an L3 controller per
// cluster, and a Tracer in tail-triggered mode: every request is traced,
// but only the slow ones (root latency >= 20 ms) are kept. The run writes
//
//   distributed_tracing.trace.json    Chrome trace-event JSON — open it in
//                                     Perfetto (ui.perfetto.dev) or
//                                     chrome://tracing to see the
//                                     client → proxy → WAN → server span
//                                     trees of the tail requests, plus an
//                                     "obs" process with rt.counter.* /
//                                     rt.gauge.* counter tracks and the
//                                     flight-recorder ring lanes;
//   distributed_tracing.journal.json  the cluster-1 controller's decision
//                                     journal (filtered signals + raw /
//                                     rate-controlled / applied weights per
//                                     backend per tick);
//
// and prints the critical-path latency breakdown (WAN vs queue vs service)
// plus the last journal decision.
#include "l3/common/table.h"
#include "l3/core/controller.h"
#include "l3/dsb/hotel_app.h"
#include "l3/lb/l3_policy.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/obs/recorder.h"
#include "l3/sim/simulator.h"
#include "l3/trace/breakdown.h"
#include "l3/trace/export.h"
#include "l3/trace/journal.h"
#include "l3/trace/tracer.h"
#include "l3/workload/client.h"

#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

int main() {
  using namespace l3;
  using namespace l3::time_literals;

  sim::Simulator sim;
  SplitRng root(42);

  // Flight recorder: engine counters/gauges and ring events for the same
  // run, exported as counter tracks alongside the span trees below.
  obs::Recorder recorder;
  obs::ScopedRecorderBind recorder_bind(recorder);

  mesh::MeshConfig mesh_config;
  mesh_config.local_delay = 0.0005;
  mesh::Mesh mesh(sim, root.split("mesh"), mesh_config);
  const auto c1 = mesh.add_cluster("cluster-1", "eu-central-1");
  const auto c2 = mesh.add_cluster("cluster-2", "eu-west-3");
  const auto c3 = mesh.add_cluster("cluster-3", "eu-south-1");
  mesh::WanModel::Link link{.base = 5_ms, .jitter_frac = 0.1};
  mesh.wan().set_symmetric(c1, c2, link);
  mesh.wan().set_symmetric(c1, c3, link);
  mesh.wan().set_symmetric(c2, c3, link);

  dsb::HotelAppConfig app_config;
  dsb::HotelReservationApp app(mesh, {c1, c2, c3}, app_config);
  app.deploy();
  app.warm_routes();

  // Tail-triggered tracing: keep only traces slower than 20 ms.
  trace::TracerConfig tracer_config;
  tracer_config.sampling = trace::SamplingMode::kTail;
  tracer_config.tail_threshold = 20_ms;
  tracer_config.max_traces = 256;
  trace::Tracer tracer(sim, tracer_config, /*seed=*/7);
  mesh.set_tracer(&tracer);

  // Make cluster-2 slow so the controllers have something to react to and
  // the tail traces show cross-cluster WAN + queue time.
  app.load_model().set_factors(c2, {.median = 3.0, .tail = 4.0});

  // The controllers are the store's only readers: keep exactly their window.
  metrics::TimeSeriesDb tsdb(core::ControllerConfig{}.query_window);
  metrics::Scraper scraper(sim, tsdb);
  for (mesh::ClusterId c : {c1, c2, c3}) {
    scraper.add_target(mesh.cluster_names()[c], mesh.registry(c));
  }
  scraper.start(5.0);

  std::vector<std::unique_ptr<core::L3Controller>> controllers;
  for (mesh::ClusterId c : {c1, c2, c3}) {
    auto controller = std::make_unique<core::L3Controller>(
        mesh, tsdb, c, std::make_unique<lb::L3Policy>());
    controller->manage_all();
    controller->start();
    controllers.push_back(std::move(controller));
  }

  workload::OpenLoopClient::Config client_config;
  client_config.mode = workload::CallMode::kLocalDirect;
  workload::OpenLoopClient client(
      mesh, c1, dsb::HotelReservationApp::kFrontend,
      [](SimTime) { return 100.0; }, root.split("client"), client_config);
  client.start(0.0, 120.0);
  auto track_task = sim.schedule_every(
      5.0, [&sim, &recorder] { recorder.sample_tracks(sim.now()); });
  sim.run_until(150.0);
  track_task.cancel();

  std::cout << "Traced " << tracer.started() << " requests, kept "
            << tracer.kept() << " tail traces (>= 20 ms), dropped "
            << tracer.dropped_fast() << " fast ones.\n\n";

  // 1. Chrome trace-event JSON for Perfetto / chrome://tracing: span trees
  // plus the obs process (rt.counter.*/rt.gauge.* tracks, ring lanes).
  {
    const obs::Snapshot snapshot = recorder.snapshot();
    std::ofstream out("distributed_tracing.trace.json");
    trace::write_chrome_trace(tracer.traces(), {}, &snapshot, out);
    std::cout << "Wrote distributed_tracing.trace.json ("
              << tracer.traces().size() << " traces, "
              << snapshot.tracks.size() << " obs track samples)\n";
  }

  // 2. Where did the tail latency come from? Critical-path attribution.
  std::cout << "\nCritical-path latency breakdown of the kept traces:\n";
  trace::print_breakdown(trace::summarize_breakdown(tracer.traces()),
                         std::cout);

  // 3. The cluster-1 controller's decision journal.
  const trace::DecisionJournal& journal = controllers.front()->journal();
  {
    std::ofstream out("distributed_tracing.journal.json");
    journal.write_json(out);
    std::cout << "\nWrote distributed_tracing.journal.json ("
              << journal.events().size() << " decisions)\n";
  }
  // The frontend itself is called locally; the managed TrafficSplits are
  // the inter-service edges — show the busiest one (frontend → search).
  if (const trace::DecisionEvent* last = journal.latest("search")) {
    std::cout << "\nLast cluster-1 'search' decision (t=" << last->time
              << "s, policy " << last->policy << "):\n";
    for (const auto& b : last->backends) {
      std::cout << "  " << b.dst_cluster << ": p99=" << fmt_ms(b.latency_p99)
                << "ms rps=" << b.rps << " raw=" << b.raw_weight
                << " rate-controlled=" << b.rate_controlled_weight
                << " applied=" << b.applied_weight << "\n";
    }
  }
  return 0;
}
