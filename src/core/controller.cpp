#include "l3/core/controller.h"

#include "l3/common/assert.h"
#include "l3/mesh/metric_names.h"
#include "l3/obs/recorder.h"

#include <utility>

namespace l3::core {

namespace mn = mesh::metric_names;

/// One managed backend: its filter bank (one row of Table 1's EWMAs), the
/// TSDB handles and introspection gauges resolved once in manage() (so the
/// 5 s control tick does zero string work; Registry guarantees pointer
/// stability), and the raw query results of the current tick.
struct L3Controller::BackendRow {
  BackendRow(const ControllerConfig& cfg, SimTime t)
      : latency(cfg.default_latency, cfg.latency_half_life, t,
                cfg.latency_filter),
        success(cfg.default_success_rate, cfg.success_half_life, t),
        rps(cfg.default_rps, cfg.rps_half_life, t),
        inflight(cfg.default_inflight, cfg.inflight_half_life, t),
        mean_latency(cfg.default_latency, cfg.latency_half_life, t),
        failure_latency(cfg.default_latency, cfg.penalty_half_life, t),
        // The staleness clock starts when the backend comes under
        // management, not at simulated time 0: a never-scraped backend
        // begins converging `staleness` after manage(), not instantly
        // (last_data == 0 used to make `now - last_data` overshoot the
        // threshold on the very first tick).
        last_data(t) {}

  metrics::Ewma latency;
  metrics::Ewma success;
  metrics::Ewma rps;
  metrics::Ewma inflight;
  /// Filtered MEAN success latency (C3's R̄ signal).
  metrics::Ewma mean_latency;
  /// Filtered latency of FAILED requests — input to dynamic penalty (§7).
  metrics::Ewma failure_latency;
  SimTime last_data = 0.0;

  struct Series {
    metrics::SeriesId requests;
    metrics::SeriesId success;
    metrics::SeriesId failure;
    metrics::HistogramId latency_success;
    metrics::HistogramId latency_failure;
    metrics::SeriesId latency_success_sum;
    metrics::SeriesId inflight;
  };
  Series series;

  struct Gauges {
    metrics::Gauge* weight = nullptr;
    metrics::Gauge* latency_p99 = nullptr;
    metrics::Gauge* success_rate = nullptr;
    metrics::Gauge* rps = nullptr;
    metrics::Gauge* inflight = nullptr;
  };
  Gauges gauges;

  /// What this tick's window queries returned (nullopt: not enough samples).
  struct Raw {
    std::optional<double> rps;
    std::optional<double> succ_rate;
    std::optional<double> fail_rate;
    std::optional<double> p99;
    std::optional<double> inflight;
    std::optional<double> latency_sum_rate;
    std::optional<double> fail_p50;
  };
  Raw raw;
};

struct L3Controller::ManagedSplit {
  mesh::TrafficSplit* split = nullptr;
  /// One row per split backend, in backend order.
  std::vector<BackendRow> backends;
  /// Per-tick scratch reused across ticks (PolicyInput takes spans).
  std::vector<lb::BackendSignals> signals_scratch;
  std::vector<mesh::BackendRef> refs_scratch;
  metrics::Ewma total_rps{0.0, 10.0};  // re-initialised in manage()
  double last_rps_sample = 0.0;
};

L3Controller::L3Controller(mesh::Mesh& mesh, metrics::TimeSeriesDb& tsdb,
                           mesh::ClusterId source,
                           std::unique_ptr<lb::LoadBalancingPolicy> policy,
                           ControllerConfig config)
    : mesh_(mesh),
      tsdb_(tsdb),
      source_(source),
      policy_(std::move(policy)),
      config_(config),
      // capacity 0 means "journaling disabled" (nothing is recorded); the
      // journal itself still needs a positive capacity.
      journal_(config.journal_capacity > 0 ? config.journal_capacity : 1) {
  L3_EXPECTS(policy_ != nullptr);
  L3_EXPECTS(config.control_interval > 0.0);
  L3_EXPECTS(config.query_window > 0.0);
  // A store that forgets samples inside the window would silently shorten
  // every rate and quantile this controller reads.
  L3_EXPECTS(tsdb.retention() >= config.query_window);
  L3_EXPECTS(config.quantile > 0.0 && config.quantile < 1.0);
  L3_EXPECTS(source < mesh.clusters().size());
}

L3Controller::~L3Controller() { stop(); }

void L3Controller::manage(mesh::TrafficSplit& split) {
  L3_EXPECTS(split.source() == source_);
  const SimTime now = mesh_.simulator().now();
  auto managed = std::make_unique<ManagedSplit>();
  managed->split = &split;
  managed->total_rps = metrics::Ewma(config_.default_rps,
                                     config_.rps_half_life, now);
  const std::string& src_name = mesh_.cluster_names()[source_];
  auto& registry = mesh_.registry(source_);
  for (const auto& backend : split.backends()) {
    BackendRow& row = managed->backends.emplace_back(config_, now);
    const std::string& dst_name = mesh_.cluster_names()[backend.ref.cluster];
    const auto key = [&](const char* metric) {
      return mn::backend_series(metric, split.service(), src_name, dst_name);
    };
    row.series = {tsdb_.series(key(mn::kRequestTotal)),
                  tsdb_.series(key(mn::kSuccessTotal)),
                  tsdb_.series(key(mn::kFailureTotal)),
                  tsdb_.histogram_series(key(mn::kLatencySuccess)),
                  tsdb_.histogram_series(key(mn::kLatencyFailure)),
                  tsdb_.series(key(mn::kLatencySuccessSum)),
                  tsdb_.series(key(mn::kInflight))};

    const auto labels = mn::backend_labels(split.service(), src_name, dst_name);
    row.gauges = {&registry.gauge("l3_backend_weight", labels),
                  &registry.gauge("l3_backend_latency_p99_ewma", labels),
                  &registry.gauge("l3_backend_success_rate_ewma", labels),
                  &registry.gauge("l3_backend_rps_ewma", labels),
                  &registry.gauge("l3_backend_inflight_ewma", labels)};
  }
  managed_.push_back(std::move(managed));
}

void L3Controller::manage_all() {
  for (mesh::TrafficSplit* split : mesh_.splits_of_source(source_)) {
    bool already = false;
    for (const auto& m : managed_) {
      if (m->split == split) {
        already = true;
        break;
      }
    }
    if (!already) manage(*split);
  }
}

void L3Controller::start() {
  stop();
  task_ = mesh_.simulator().schedule_every(
      config_.control_interval, [this] { tick(); }, config_.control_interval);
}

void L3Controller::stop() { task_.cancel(); }

void L3Controller::tick() {
  ++ticks_;
  L3_OBS_COUNT(kControllerTicks, 1);
  double total_rps = 0.0;
  for (auto& managed : managed_) {
    {
      L3_OBS_SCOPE(obs_manage, kControllerManage);
      tick_split(*managed);
    }
    total_rps += managed->last_rps_sample;
  }
  L3_OBS_EVENT(kController, kControllerTick, mesh_.simulator().now(),
               static_cast<std::uint32_t>(managed_.size()), total_rps);
}

void L3Controller::tick_split(ManagedSplit& managed) {
  const SimTime now = mesh_.simulator().now();
  const SimDuration window = config_.query_window;
  const std::size_t n = managed.backends.size();

  // Phase 1 — gather: every TSDB read for the split, one backend row at a
  // time. Queries are pure reads, so running them all before any filter
  // update cannot change a value.
  {
    L3_OBS_SCOPE(obs_gather, kControllerGather);
    for (BackendRow& row : managed.backends) {
      const BackendRow::Series& id = row.series;
      BackendRow::Raw& raw = row.raw;
      raw.rps = tsdb_.rate(id.requests, window, now);
      raw.succ_rate = tsdb_.rate(id.success, window, now);
      raw.fail_rate = tsdb_.rate(id.failure, window, now);
      raw.p99 = tsdb_.quantile(id.latency_success, config_.quantile, window,
                               now);
      raw.inflight = tsdb_.avg(id.inflight, window, now);
      raw.latency_sum_rate = tsdb_.rate(id.latency_success_sum, window, now);
      raw.fail_p50 = tsdb_.quantile(id.latency_failure, 0.50, window, now);
    }
  }

  // Phase 2 — per-backend filter updates from the gathered results.
  managed.signals_scratch.assign(n, lb::BackendSignals{});
  std::vector<lb::BackendSignals>& signals = managed.signals_scratch;
  double total_rps_sample = 0.0;
  bool any_rps = false;
  double failure_latency_acc = 0.0;
  int failure_latency_n = 0;

  for (std::size_t i = 0; i < n; ++i) {
    BackendRow& f = managed.backends[i];
    const auto& [rps, succ_rate, fail_rate, p99, inflight, latency_sum_rate,
                 fail_p50] = f.raw;

    const bool have_data = rps.has_value() && *rps > 0.0;
    if (have_data) {
      f.last_data = now;
      f.rps.observe(*rps, now);
      total_rps_sample += *rps;
      any_rps = true;
      if (succ_rate && fail_rate) {
        const double total = *succ_rate + *fail_rate;
        if (total > 0.0) f.success.observe(*succ_rate / total, now);
      } else if (succ_rate) {
        f.success.observe(1.0, now);
      }
      if (p99) f.latency.observe(*p99, now);
      if (succ_rate && latency_sum_rate && *succ_rate > 0.0) {
        // mean = rate(latency_sum) / rate(success), Prometheus-style.
        f.mean_latency.observe(*latency_sum_rate / *succ_rate, now);
      }
      if (inflight) f.inflight.observe(std::max(0.0, *inflight), now);
      if (fail_p50) {
        f.failure_latency.observe(*fail_p50, now);
        failure_latency_acc += f.failure_latency.value();
        ++failure_latency_n;
      }
    } else if (now - f.last_data >= config_.staleness) {
      // §4 degraded-metrics semantics: for gaps SHORTER than the staleness
      // threshold, signals freeze at their last filtered value (a scrape
      // may legitimately lag by one interval and the last measurement is
      // the best guess); from the threshold onward — inclusive, so a 10 s
      // gap on a 5 s tick starts converging at 10 s, not 15 s — every tick
      // blends the defaults in until samples return.
      f.latency.converge_to_default(now);
      f.mean_latency.converge_to_default(now);
      f.success.converge_to_default(now);
      f.rps.converge_to_default(now);
      f.inflight.converge_to_default(now);
    }

    signals[i].latency_p99 = f.latency.value();
    signals[i].latency_mean = f.mean_latency.value();
    signals[i].success_rate = f.success.value();
    signals[i].rps = f.rps.value();
    signals[i].inflight = f.inflight.value();
  }

  if (any_rps) {
    managed.total_rps.observe(total_rps_sample, now);
    managed.last_rps_sample = total_rps_sample;
  }

  if (config_.dynamic_penalty && penalty_hook_ && failure_latency_n > 0) {
    penalty_hook_(failure_latency_acc / failure_latency_n);
  }

  lb::PolicyInput input;
  input.source = source_;
  std::vector<mesh::BackendRef>& refs = managed.refs_scratch;
  refs.clear();
  refs.reserve(managed.split->backend_count());
  for (const auto& b : managed.split->backends()) refs.push_back(b.ref);
  input.backends = refs;
  input.signals = signals;
  input.total_rps_ewma = managed.total_rps.value();
  input.total_rps_last = managed.last_rps_sample;

  lb::PolicyExplain explain;
  std::vector<std::uint64_t> weights = policy_->compute_explained(input, explain);
  L3_ASSERT(weights.size() == managed.split->backend_count());

  if (active_ && managed.split->set_weights(weights)) {
    L3_OBS_COUNT(kWeightUpdates, 1);
  }

  if (config_.journal_capacity > 0) {
    trace::DecisionEvent event;
    event.time = now;
    event.tick = ticks_;
    event.source_cluster = mesh_.cluster_names()[source_];
    event.service = managed.split->service();
    event.policy = std::string(policy_->name());
    event.applied = active_;
    event.total_rps_ewma = input.total_rps_ewma;
    event.total_rps_last = input.total_rps_last;
    event.backends.reserve(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      trace::BackendDecision b;
      b.dst_cluster = mesh_.cluster_names()[refs[i].cluster];
      b.latency_p99 = signals[i].latency_p99;
      b.success_rate = signals[i].success_rate;
      b.rps = signals[i].rps;
      b.inflight = signals[i].inflight;
      b.raw_weight = i < explain.raw_weights.size() ? explain.raw_weights[i]
                                                    : 0.0;
      b.rate_controlled_weight =
          i < explain.rate_controlled.size() ? explain.rate_controlled[i] : 0.0;
      b.applied_weight = weights[i];
      event.backends.push_back(std::move(b));
    }
    journal_.record(std::move(event));
  }

  // Controller-internal state as gauges (weight + filtered signals per
  // backend) in the source cluster's registry. The weight is the split's,
  // which a paused controller leaves unchanged.
  const auto applied = managed.split->backends();
  for (std::size_t i = 0; i < n; ++i) {
    const BackendRow::Gauges& gauges = managed.backends[i].gauges;
    gauges.weight->set(static_cast<double>(applied[i].weight));
    gauges.latency_p99->set(signals[i].latency_p99);
    gauges.success_rate->set(signals[i].success_rate);
    gauges.rps->set(signals[i].rps);
    gauges.inflight->set(signals[i].inflight);
  }
}

std::vector<SplitStateView> L3Controller::snapshot() const {
  std::vector<SplitStateView> out;
  out.reserve(managed_.size());
  for (const auto& managed : managed_) {
    SplitStateView view;
    view.service = managed->split->service();
    view.total_rps_ewma = managed->total_rps.value();
    view.total_rps_last = managed->last_rps_sample;
    const auto backends = managed->split->backends();
    for (std::size_t i = 0; i < managed->backends.size(); ++i) {
      const BackendRow& f = managed->backends[i];
      BackendStateView b;
      b.dst_cluster = mesh_.cluster_names()[backends[i].ref.cluster];
      b.latency_p99 = f.latency.value();
      b.success_rate = f.success.value();
      b.rps = f.rps.value();
      b.inflight = f.inflight.value();
      b.weight = backends[i].weight;
      view.backends.push_back(std::move(b));
    }
    out.push_back(std::move(view));
  }
  return out;
}

}  // namespace l3::core
