// The fault injector — the runtime half of l3::chaos. arm() translates a
// FaultPlan into first-class simulator events: crash/restart transitions on
// deployments, scrape-target toggles, controller pause/resume flips. WAN
// partitions and brownouts are installed into the WanModel up front (both
// are time-windowed inside the model itself, and proxies cache availability
// against the partition transition horizon).
//
// Determinism: the injector draws no randomness. Fault times come straight
// from the plan (plus the arm offset), so a fixed (plan, offset, workload
// seed) triple reproduces the identical run — which is what keeps chaos
// sweeps jobs-invariant under exp's parallel runner.
#pragma once

#include "l3/chaos/fault_plan.h"
#include "l3/core/controller.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/scraper.h"
#include "l3/sim/simulator.h"
#include "l3/trace/export.h"

#include <cstdint>
#include <vector>

namespace l3::chaos {

/// Schedules a FaultPlan against a mesh. Must outlive the simulation run
/// (scheduled events reference it).
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, mesh::Mesh& mesh)
      : sim_(sim), mesh_(mesh) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers the scraper kScrapeOutage faults act on (optional; outages
  /// are skipped without one).
  void set_scraper(metrics::Scraper* scraper) { scraper_ = scraper; }

  /// Registers a controller kControllerPause faults act on (several
  /// controllers may be registered; all are paused together).
  void add_controller(core::L3Controller* controller);

  /// Schedules every fault in `plan`, shifting all times by `time_offset`
  /// (e.g. the warm-up, so plan times are relative to measurement start).
  /// WAN faults are installed into the WanModel immediately; the rest
  /// become begin/end simulator events. May be called more than once
  /// (plans accumulate).
  void arm(const FaultPlan& plan, SimTime time_offset = 0.0);

  /// Every fault transition of the armed plans, sorted by time (begin and
  /// end of each window) — ready for trace export as instant events.
  const std::vector<trace::FaultMarker>& markers() const { return markers_; }

  /// Fault windows armed so far.
  std::size_t armed() const { return faults_.size(); }

  /// Begin/end transitions actually executed as events so far (WAN faults
  /// are modelled inside the WanModel and do not count).
  std::uint64_t transitions() const { return transitions_; }

 private:
  void begin_fault(const Fault& fault);
  void end_fault(const Fault& fault);
  void set_crashed(const Fault& fault, bool crashed);
  /// "kind:detail" marker name, e.g. "crash:api@cluster-2".
  std::string marker_name(const Fault& fault) const;

  sim::Simulator& sim_;
  mesh::Mesh& mesh_;
  metrics::Scraper* scraper_ = nullptr;
  std::vector<core::L3Controller*> controllers_;
  /// Armed faults with absolute (offset-applied) times; events reference
  /// entries by index, so the vector only ever grows.
  std::vector<Fault> faults_;
  std::vector<trace::FaultMarker> markers_;
  std::uint64_t transitions_ = 0;
};

}  // namespace l3::chaos
