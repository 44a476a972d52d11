// l3_ledger — the performance ledger (see README.md beside this file).
//
// One command runs five named workloads through the library's public entry
// points (workload::run_scenario, dsb::run_hotel_reservation,
// workload::run_mega) and reports end-to-end metrics per workload, plus a
// per-layer breakdown from one extra traced run.
//
// Every workload call runs in a fresh child process (a re-exec of
// /proc/self/exe) and is timed from outside the library: wall time around
// the call, getrusage deltas for CPU, ru_maxrss for memory. Reps are
// interleaved round-robin across workloads and summarised as medians and
// quartiles: on shared VMs host speed drifts in time-correlated phases, which
// best-of-N hides and back-to-back reps of one workload alias. Times are
// also scaled to a reference host speed by a probe loop each child times
// around its call (see probe_loop_seconds). Only one child runs at a time.
//
// Per-layer numbers come from the l3::obs scope timers that already exist
// (RunnerConfig::profile, DsbRunnerConfig::profile, and a ScopedRecorderBind
// around run_mega), never from spans inside the program.
#include "l3/chaos/fault_plan.h"
#include "l3/common/rng.h"
#include "l3/common/stats.h"
#include "l3/dsb/runner.h"
#include "l3/obs/recorder.h"
#include "l3/trace/export.h"
#include "l3/workload/mega.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

extern char** environ;

namespace {

using l3::workload::PolicyKind;
using Clock = std::chrono::steady_clock;

constexpr std::string_view kUsage =
    "usage: l3_ledger [--workload=NAME|all] [--reps=N] [--seed=S]\n"
    "                 [--seconds=T] [--trace=0|1] [--json=PATH]\n"
    "                 [--markdown=PATH] [--smoke]\n"
    "  NAME       fig10 | hotel | mega | mega-sharded | chaos-costed\n"
    "             (choosing one of mega and mega-sharded also runs the\n"
    "             other, once as its digest gate, and in every round with\n"
    "             --trace=1, for sim.shard_scaling)\n"
    "  --reps     minimum timed reps per workload, 1..1000 (default 9)\n"
    "  --seed     unsigned 64-bit workload seed (default 42)\n"
    "  --seconds  keep adding timed rounds until T seconds have passed\n"
    "             (default 0: exactly --reps rounds)\n"
    "  --trace    1 (default) adds one traced child per workload and the\n"
    "             per-layer metrics; 0 skips them\n"
    "  --smoke    tiny sizes and 1 rep, for the LedgerSmoke test\n";

// ---------------------------------------------------------------------------
// Workloads.

enum class Workload : std::size_t {
  kFig10,
  kHotel,
  kMega,
  kMegaSharded,
  kChaosCosted,
  kCount
};
constexpr std::size_t kWorkloadCount = static_cast<std::size_t>(Workload::kCount);
constexpr std::array<std::string_view, kWorkloadCount> kWorkloadNames = {
    "fig10", "hotel", "mega", "mega-sharded", "chaos-costed"};

std::string_view name_of(Workload w) {
  return kWorkloadNames[static_cast<std::size_t>(w)];
}

enum class Mode { kTimed, kSetup, kTraced };
constexpr std::array<std::string_view, 3> kModeNames = {"timed", "setup",
                                                        "traced"};

/// Shards of the mega-sharded workload: never more threads than the host has.
std::size_t sharded_shards(bool smoke) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(smoke ? 3 : 4, hw);
}

/// The chaos-costed proxy cost model. At 3 ms of sidecar CPU per request the
/// one-worker stage queues heavily but stays stable across seeds (~94 %
/// success); at 4 ms it collapses (35 % success, mean L3 p99 ~15 s).
l3::mesh::ProxyCostConfig chaos_proxy_cost() {
  l3::mesh::ProxyCostConfig cost;
  cost.cpu_per_request = 0.003;
  cost.concurrency = 1;
  cost.handshake_cost = 0.002;
  cost.pool_size = 16;
  cost.idle_timeout = 30.0;
  return cost;
}

/// One simulated client population's outcome: a run_scenario cell or a mega
/// region.
struct Cell {
  std::string label;
  bool l3 = true;
  std::uint64_t requests = 0;
  double success_rate = 1.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

struct CallOutcome {
  std::vector<Cell> cells;
  /// Cells alternate round-robin, L3 over identical inputs.
  bool paired = false;
  std::string digest_text;
  l3::obs::ProfileBlock profile;
  l3::sim::MailboxStats mailbox;
  /// Client requests the recorder could see: all of them, except on a
  /// sharded mega run, where only shard 0 (the calling thread) is bound.
  std::uint64_t profiled_requests = 0;
};

/// Inputs generated before the clock starts: they are not part of the call.
struct Inputs {
  std::vector<l3::workload::ScenarioTrace> traces;
  std::vector<l3::chaos::FaultPlan> plans;
};

Inputs make_inputs(Workload w) {
  Inputs in;
  if (w == Workload::kFig10) in.traces = l3::workload::all_latency_scenarios();
  if (w == Workload::kChaosCosted) {
    in.traces = {l3::workload::make_failure1_chaos(),
                 l3::workload::make_failure2_chaos()};
    in.plans = {l3::workload::failure1_faults(),
                l3::workload::failure2_faults()};
  }
  return in;
}

void add_cell(CallOutcome& out, const l3::workload::RunResult& r) {
  out.cells.push_back(Cell{r.scenario + " " + r.policy, r.policy == "L3",
                           r.requests, r.summary.success_rate,
                           r.summary.latency.p50, r.summary.latency.p99});
  out.profile.merge(r.profile);
}

/// The setup call keeps the whole workload call but removes the client
/// load: no warm-up and a 1 ms measured window, so what remains is topology
/// build, the idle drain and teardown.
template <typename Config>
void shape_window(Config& cfg, Mode mode, bool smoke) {
  if (mode == Mode::kSetup) {
    cfg.warmup = 0.0;
    cfg.duration = 0.001;
  } else if (smoke) {
    cfg.duration = 30.0;
  }
}

CallOutcome call_scenarios(Workload w, Mode mode, std::uint64_t seed,
                           bool smoke, const Inputs& in) {
  CallOutcome out;
  out.paired = true;
  l3::workload::RunnerConfig cfg;
  cfg.seed = seed;
  cfg.profile = mode == Mode::kTraced;
  shape_window(cfg, mode, smoke);
  if (w == Workload::kFig10) {
    for (const auto& trace : in.traces) {
      for (const PolicyKind kind : {PolicyKind::kRoundRobin, PolicyKind::kL3}) {
        add_cell(out, l3::workload::run_scenario(trace, kind, cfg));
      }
    }
    return out;
  }
  cfg.health_probe_interval = 0.0;  // failures visible via metrics only
  cfg.proxy_cost = chaos_proxy_cost();
  for (std::size_t s = 0; s < in.traces.size(); ++s) {
    cfg.faults = in.plans[s];
    for (const std::uint64_t cell_seed : {seed, seed + 1}) {
      cfg.seed = cell_seed;
      for (const PolicyKind kind : {PolicyKind::kRoundRobin, PolicyKind::kL3}) {
        add_cell(out, l3::workload::run_scenario(in.traces[s], kind, cfg));
      }
    }
  }
  return out;
}

CallOutcome call_hotel(Mode mode, std::uint64_t seed, bool smoke) {
  CallOutcome out;
  out.paired = true;
  l3::dsb::DsbRunnerConfig cfg;
  cfg.seed = seed;
  cfg.profile = mode == Mode::kTraced;
  shape_window(cfg, mode, smoke);
  for (const PolicyKind kind : {PolicyKind::kRoundRobin, PolicyKind::kL3}) {
    add_cell(out, l3::dsb::run_hotel_reservation(kind, cfg));
  }
  return out;
}

CallOutcome call_mega(Workload w, Mode mode, std::uint64_t seed, bool smoke) {
  l3::workload::MegaConfig cfg;
  cfg.seed = seed;
  cfg.regions = smoke ? 6 : 24;
  cfg.replicas_per_region = smoke ? 20 : 420;
  cfg.rps_per_region = 200.0;
  cfg.duration = mode == Mode::kSetup ? 0.001 : (smoke ? 5.0 : 240.0);
  cfg.shards = w == Workload::kMegaSharded ? sharded_shards(smoke) : 1;

  l3::workload::MegaResult result;
  CallOutcome out;
  if (mode == Mode::kTraced) {
    // ShardEngine::run executes shard 0 on the calling thread when threads
    // are unpinned, so this binding sees the whole run at shards=1 and
    // shard 0's regions otherwise.
    l3::obs::Recorder recorder;
    {
      const l3::obs::ScopedRecorderBind bind(recorder);
      result = l3::workload::run_mega(cfg);
    }
    out.profile = recorder.profile();
  } else {
    result = l3::workload::run_mega(cfg);
  }
  for (std::size_t r = 0; r < result.regions.size(); ++r) {
    const auto& row = result.regions[r];
    out.cells.push_back(Cell{"region-" + std::to_string(r), true, row.requests,
                             row.success_rate, row.p50, row.p99});
    // mega.h's contiguous block partition: region r lives on shard
    // r·shards/regions, so shard 0 owns the regions with r·shards < regions.
    if (r * cfg.shards < cfg.regions) out.profiled_requests += row.requests;
  }
  out.digest_text = result.digest();
  out.mailbox = result.mailbox;
  return out;
}

CallOutcome call_workload(Workload w, Mode mode, std::uint64_t seed,
                          bool smoke, const Inputs& in) {
  switch (w) {
    case Workload::kFig10:
    case Workload::kChaosCosted:
      return call_scenarios(w, mode, seed, smoke, in);
    case Workload::kHotel:
      return call_hotel(mode, seed, smoke);
    case Workload::kMega:
    case Workload::kMegaSharded:
      return call_mega(w, mode, seed, smoke);
    case Workload::kCount:
      break;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Flat JSON: one line per child, parsed back by the parent.

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quote(std::string_view s) {
  return "\"" + l3::trace::json_escape(s) + "\"";
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Record {
  std::map<std::string, double, std::less<>> num;
  std::map<std::string, std::string, std::less<>> str;

  double at(std::string_view key) const {
    const auto it = num.find(key);
    return it == num.end() ? 0.0 : it->second;
  }
};

/// Parses one flat JSON object of string and number values.
std::optional<Record> parse_flat_json(std::string_view s) {
  Record rec;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t')) ++i;
  };
  const auto parse_string = [&]() -> std::optional<std::string> {
    if (i >= s.size() || s[i] != '"') return std::nullopt;
    std::string out;
    for (++i; i < s.size() && s[i] != '"'; ++i) {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out += s[i];
    }
    if (i >= s.size()) return std::nullopt;
    ++i;
    return out;
  };
  skip_ws();
  if (i >= s.size() || s[i++] != '{') return std::nullopt;
  for (;;) {
    skip_ws();
    auto key = parse_string();
    if (!key) return std::nullopt;
    skip_ws();
    if (i >= s.size() || s[i++] != ':') return std::nullopt;
    skip_ws();
    if (i < s.size() && s[i] == '"') {
      auto value = parse_string();
      if (!value) return std::nullopt;
      rec.str[*key] = *value;
    } else {
      double value = 0.0;
      const auto res = std::from_chars(s.data() + i, s.data() + s.size(), value);
      if (res.ec != std::errc()) return std::nullopt;
      i = static_cast<std::size_t>(res.ptr - s.data());
      rec.num[*key] = value;
    }
    skip_ws();
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') return rec;
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Child: exactly one workload call, one JSON line on stdout.

/// Host-speed probe. On a shared VM host, other tenants' load on the same
/// cores slows a run by up to ~2x in phases lasting minutes, longer than a
/// run, so medians over reps cannot remove it. Each child therefore times
/// a fixed loop right before and right after its call, on as many threads
/// as the call uses, and the ledger reports every wall- and CPU-derived
/// metric at the speed of a reference host on which the loop takes
/// kProbeReferenceSeconds. The loop is throughput-bound integer work with no
/// memory traffic (independent splitmix64 steps): a serial dependency chain
/// does not feel contention for a core's execution ports, and that
/// contention is what the slow phases are. It lives in the benchmark's own
/// file, so it is the same code for every commit compared.
constexpr double kProbeReferenceSeconds = 0.010;

double probe_loop_seconds() {
  constexpr std::uint64_t kIterations = 8'000'000;
  const auto start = Clock::now();
  std::uint64_t x = 0;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc += z ^ (z >> 31);
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  volatile std::uint64_t sink = acc;
  (void)sink;
  return elapsed.count();
}

/// Mean probe time over `threads` concurrent copies of the loop.
double probe_seconds(std::size_t threads) {
  std::vector<double> times(threads);
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < threads; ++i) {
    helpers.emplace_back([&times, i] { times[i] = probe_loop_seconds(); });
  }
  times[0] = probe_loop_seconds();
  for (std::thread& t : helpers) t.join();
  return l3::mean(times);
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

std::string scope_key(l3::obs::ScopeId id, std::string_view field) {
  return "scope." + std::string(l3::obs::scope_name(id)) + "." +
         std::string(field);
}

int run_child(Workload w, Mode mode, std::uint64_t seed, bool smoke) {
  const Inputs inputs = make_inputs(w);
  const std::size_t threads = w == Workload::kMegaSharded ? sharded_shards(smoke) : 1;
  const double probe_before = probe_seconds(threads);
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const auto start = Clock::now();
  const CallOutcome out = call_workload(w, mode, seed, smoke, inputs);
  const std::chrono::duration<double> wall = Clock::now() - start;
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  const double probe_after = probe_seconds(threads);

  std::uint64_t requests = 0;
  double failed = 0.0;
  double p99_sum = 0.0;
  std::size_t p99_cells = 0;
  for (const Cell& c : out.cells) {
    requests += c.requests;
    failed += std::round(static_cast<double>(c.requests) * (1.0 - c.success_rate));
    if (c.l3) {
      p99_sum += c.p99;
      ++p99_cells;
    }
  }
  double gain_sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; out.paired && i + 1 < out.cells.size(); i += 2) {
    const double rr = out.cells[i].p99;
    if (rr > 0.0) {
      gain_sum += (rr - out.cells[i + 1].p99) / rr;
      ++pairs;
    }
  }
  std::string digest = out.digest_text;
  if (digest.empty()) {
    char buf[256];
    for (const Cell& c : out.cells) {
      std::snprintf(buf, sizeof buf, "%s requests=%llu ok=%.17g p50=%.17g p99=%.17g\n",
                    c.label.c_str(), static_cast<unsigned long long>(c.requests),
                    c.success_rate, c.p50, c.p99);
      digest += buf;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a(digest)));

  std::string line = "{\"workload\":" + quote(name_of(w)) +
                     ",\"mode\":" + quote(kModeNames[static_cast<int>(mode)]) +
                     ",\"digest\":" + quote(hex);
  const auto field = [&line](std::string_view key, double value) {
    line += "," + quote(key) + ":" + fmt_num(value);
  };
  field("probe_s", 0.5 * (probe_before + probe_after));
  field("wall_s", wall.count());
  field("user_s", seconds_of(after.ru_utime) - seconds_of(before.ru_utime));
  field("sys_s", seconds_of(after.ru_stime) - seconds_of(before.ru_stime));
  field("maxrss_kb", static_cast<double>(after.ru_maxrss));
  field("requests", static_cast<double>(requests));
  field("failed", failed);
  field("p99_ms", p99_cells > 0 ? 1e3 * p99_sum / static_cast<double>(p99_cells) : 0.0);
  if (pairs > 0) field("gain_pct", 100.0 * gain_sum / static_cast<double>(pairs));
  field("mailbox_messages", static_cast<double>(out.mailbox.messages));
  field("mailbox_flushes", static_cast<double>(out.mailbox.flushes));
  field("mailbox_capacity_flushes",
        static_cast<double>(out.mailbox.capacity_flushes));
  if (mode == Mode::kTraced) {
    field("profiled_requests", static_cast<double>(
                                   out.profiled_requests > 0 ? out.profiled_requests
                                                             : requests));
    for (std::size_t i = 0; i < l3::obs::kScopeCount; ++i) {
      const auto id = static_cast<l3::obs::ScopeId>(i);
      const auto count = out.profile.scope_count[i];
      const auto timed = out.profile.scope_timed[i];
      // Sampled scopes time every 64th entry: estimate the total as the
      // exact count times the mean of the timed entries.
      const double ns = timed > 0 ? static_cast<double>(count) *
                                        out.profile.scope_wall_ns[i] /
                                        static_cast<double>(timed)
                                  : 0.0;
      field(scope_key(id, "count"), static_cast<double>(count));
      field(scope_key(id, "ns"), ns);
    }
    for (std::size_t i = 0; i < l3::obs::kCounterCount; ++i) {
      field(l3::obs::counter_name(static_cast<l3::obs::CounterId>(i)),
            static_cast<double>(out.profile.counters[i]));
    }
  }
  std::cout << line << "}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: spawn children, gate digests, summarise.

struct ChildResult {
  std::optional<Record> record;
  std::string error;
};

ChildResult spawn_child(const std::vector<std::string>& args) {
  ChildResult res;
  int fds[2];
  if (pipe(fds) != 0) {
    res.error = "pipe failed";
    return res;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  if (rc == 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n > 0) {
        output.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (rc != 0) {
    res.error = "posix_spawn failed";
    return res;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    res.error = "killed by signal " + std::to_string(WTERMSIG(status));
    return res;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    res.error = "exit code " + std::to_string(WEXITSTATUS(status));
    return res;
  }
  while (!output.empty() && output.back() == '\n') output.pop_back();
  const std::size_t nl = output.rfind('\n');
  res.record = parse_flat_json(nl == std::string::npos
                                   ? std::string_view(output)
                                   : std::string_view(output).substr(nl + 1));
  if (!res.record) res.error = "unparsable output";
  return res;
}

struct Options {
  std::vector<Workload> workloads;
  int reps = 9;
  std::uint64_t seed = 42;
  double seconds = 0.0;
  bool trace = true;
  bool smoke = false;
  std::string json;
  std::string markdown;
  std::optional<Workload> child;
  Mode mode = Mode::kTimed;
};

struct Stat {
  double median = 0.0, q1 = 0.0, q3 = 0.0, min = 0.0, max = 0.0;
  std::size_t n = 0;
};

Stat stat_of(const std::vector<double>& v) {
  Stat s;
  s.n = v.size();
  if (v.empty()) return s;
  s.median = l3::percentile(v, 0.50);
  s.q1 = l3::percentile(v, 0.25);
  s.q3 = l3::percentile(v, 0.75);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

struct Metric {
  std::string_view name;
  std::string_view unit;
};

/// How much slower than the reference host a child's core ran.
double slowdown(const Record& r) {
  return r.at("probe_s") / kProbeReferenceSeconds;
}

struct EndToEndMetric {
  Metric metric;
  /// Taken from the set-up reps instead of the timed reps.
  bool from_setup;
  double (*of)(const Record&);
};

constexpr std::array<EndToEndMetric, 6> kEndToEnd = {{
    {{"req_per_s", "req/s"}, false,
     [](const Record& r) { return r.at("requests") * slowdown(r) / r.at("wall_s"); }},
    {{"cpu_us_per_req", "us"}, false,
     [](const Record& r) {
       return 1e6 * (r.at("user_s") + r.at("sys_s")) / slowdown(r) / r.at("requests");
     }},
    {{"setup_s", "s"}, true,
     [](const Record& r) { return r.at("wall_s") / slowdown(r); }},
    {{"peak_rss_mb", "MiB"}, false,
     [](const Record& r) { return r.at("maxrss_kb") / 1024.0; }},
    {{"sim_p99_ms", "ms"}, false, [](const Record& r) { return r.at("p99_ms"); }},
    {{"success_frac", "fraction"}, false,
     [](const Record& r) { return 1.0 - r.at("failed") / r.at("requests"); }},
}};
constexpr std::size_t kSetupMetric = 2;

struct WorkloadRuns {
  std::vector<Record> timed;
  std::vector<Record> setup;
  std::optional<Record> traced;
  std::string digest;
  std::array<Stat, kEndToEnd.size()> e2e{};
  std::vector<std::pair<Metric, double>> layers;
  std::vector<std::string> flags;
  std::size_t attempted = 0;
};

std::vector<double> column(const std::vector<Record>& recs, double (*f)(const Record&)) {
  std::vector<double> out;
  for (const Record& r : recs) out.push_back(f(r));
  return out;
}

void summarise_e2e(WorkloadRuns& w) {
  for (std::size_t m = 0; m < kEndToEnd.size(); ++m) {
    w.e2e[m] = stat_of(column(kEndToEnd[m].from_setup ? w.setup : w.timed, kEndToEnd[m].of));
  }
}

/// Per-draw cost of the SplitRng public calls, timed in this process.
double rng_ns_per_draw(double (*draw)(l3::SplitRng&)) {
  constexpr std::size_t kDraws = 200000;
  std::vector<double> reps;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    l3::SplitRng rng(0x5eed + static_cast<std::uint64_t>(rep));
    double acc = 0.0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kDraws; ++i) acc += draw(rng);
    const std::chrono::duration<double, std::nano> ns = Clock::now() - start;
    sink = sink + acc;
    reps.push_back(ns.count() / static_cast<double>(kDraws));
  }
  return l3::percentile(reps, 0.5);
}

/// What one timed obs scope adds to its own reading: the mean an empty
/// ScopedTimer records (about one steady_clock read). Every scope estimate
/// is corrected by this times its entry count.
double measure_timer_bias_ns() {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    l3::obs::Recorder recorder;
    {
      const l3::obs::ScopedRecorderBind bind(recorder);
      for (int i = 0; i < 100000; ++i) {
        const l3::obs::ScopedTimer timer(l3::obs::ScopeId::kSimDispatch);
      }
    }
    const l3::obs::Snapshot snapshot = recorder.snapshot();
    const auto& scope = snapshot.scopes[0];
    reps.push_back(scope.wall_ns_total / static_cast<double>(scope.timed));
  }
  return l3::percentile(reps, 0.5);
}

/// Costs the ledger times in its own process, outside any workload, at the
/// reference host speed like every other time.
struct HostCosts {
  double uniform = 0.0, exponential = 0.0, normal = 0.0, lognormal = 0.0;
  double timer_bias = 0.0;
};

HostCosts measure_host() {
  const double probe_before = probe_seconds(1);
  HostCosts c;
  c.timer_bias = measure_timer_bias_ns();
  c.uniform = rng_ns_per_draw([](l3::SplitRng& r) { return r.uniform(); });
  c.exponential = rng_ns_per_draw([](l3::SplitRng& r) { return r.exponential(100.0); });
  c.normal = rng_ns_per_draw([](l3::SplitRng& r) { return r.normal(0.0, 1.0); });
  c.lognormal = rng_ns_per_draw([](l3::SplitRng& r) { return r.lognormal(0.0, 0.5); });
  const double slow = 0.5 * (probe_before + probe_seconds(1)) / kProbeReferenceSeconds;
  for (double* v : {&c.timer_bias, &c.uniform, &c.exponential, &c.normal, &c.lognormal}) {
    *v /= slow;
  }
  return c;
}

constexpr double kUnattributedBar = 0.10;

void summarise_layers(Workload id, WorkloadRuns& w, const WorkloadRuns* mega,
                      const WorkloadRuns* sharded, const HostCosts& host) {
  using l3::obs::CounterId;
  using l3::obs::ScopeId;
  const Record& t = *w.traced;
  const double req = std::max(1.0, t.at("profiled_requests"));
  const auto count = [&t](ScopeId s) { return t.at(scope_key(s, "count")); };
  // Scope totals at the reference host speed, less the timer's own cost.
  const auto ns = [&](ScopeId s) {
    return t.at(scope_key(s, "ns")) / slowdown(t) - count(s) * host.timer_bias;
  };
  const auto counter = [&t](CounterId c) { return t.at(l3::obs::counter_name(c)); };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  // Scopes nested directly in sim.dispatch; the rest nest inside these
  // (tsdb.* and scraper.plan in scraper.scrape, controller.gather in
  // controller.manage).
  double nested = 0.0;
  for (const ScopeId s :
       {ScopeId::kPickerRebuild, ScopeId::kWeightedPick, ScopeId::kP2cPick,
        ScopeId::kTimeoutSweep, ScopeId::kProxyCost, ScopeId::kScraperScrape,
        ScopeId::kControllerManage, ScopeId::kChaosTransition}) {
    nested += ns(s);
  }
  const Record& first = w.timed.front();
  const double timed_req = std::max(1.0, first.at("requests"));
  std::vector<double> cpu_per_wall, sys_frac, slowdowns, timed_walls;
  for (const Record& r : w.timed) {
    const double cpu = r.at("user_s") + r.at("sys_s");
    cpu_per_wall.push_back(ratio(cpu, r.at("wall_s")));
    sys_frac.push_back(ratio(r.at("sys_s"), cpu));
    slowdowns.push_back(slowdown(r));
    timed_walls.push_back(r.at("wall_s") / slowdown(r));
  }
  // Raw rates: the two workloads' reps are interleaved, so they share the
  // host's phases, and their probes run on different thread counts.
  double scaling = 0.0;
  if ((id == Workload::kMega || id == Workload::kMegaSharded) && mega && sharded) {
    const auto raw_rate = [](const Record& r) { return r.at("requests") / r.at("wall_s"); };
    scaling = ratio(stat_of(column(sharded->timed, raw_rate)).median,
                    stat_of(column(mega->timed, raw_rate)).median);
  }
  const double gain = first.num.count("gain_pct") ? first.at("gain_pct") : 0.0;
  const double traced_wall = t.at("wall_s") / slowdown(t);
  const double timed_wall = l3::percentile(timed_walls, 0.5);
  const double dispatch_s = 1e-9 * ns(ScopeId::kSimDispatch);
  const double unattributed =
      ratio(traced_wall - w.e2e[kSetupMetric].median - dispatch_s, traced_wall);

  w.layers = {
      {{"sim.events_per_req", "events/req"}, counter(CounterId::kSimEvents) / req},
      {{"sim.batch_fill", "events/batch"},
       ratio(counter(CounterId::kSimEvents), counter(CounterId::kSimBatches))},
      {{"sim.self_ns_per_req", "ns/req"}, (ns(ScopeId::kSimDispatch) - nested) / req},
      {{"sim.shard_cpu_per_wall", "cpu-s/s"}, l3::percentile(cpu_per_wall, 0.5)},
      {{"sim.shard_sys_frac", "fraction"}, l3::percentile(sys_frac, 0.5)},
      {{"sim.mailbox_msgs_per_req", "msgs/req"},
       first.at("mailbox_messages") / timed_req},
      {{"sim.mailbox_capacity_flush_frac", "fraction"},
       ratio(first.at("mailbox_capacity_flushes"), first.at("mailbox_flushes"))},
      {{"sim.shard_scaling", "x"}, scaling},
      {{"mesh.sends_per_req", "sends/req"}, counter(CounterId::kMeshRequests) / req},
      {{"mesh.pick_ns_per_req", "ns/req"},
       (ns(ScopeId::kWeightedPick) + ns(ScopeId::kP2cPick)) / req},
      {{"mesh.picker_rebuilds_per_kreq", "count/kreq"},
       1e3 * count(ScopeId::kPickerRebuild) / req},
      {{"mesh.picker_rebuild_ns_per_req", "ns/req"}, ns(ScopeId::kPickerRebuild) / req},
      {{"mesh.timeout_sweep_ns_per_req", "ns/req"}, ns(ScopeId::kTimeoutSweep) / req},
      {{"mesh.timeouts_frac", "fraction"},
       ratio(counter(CounterId::kMeshTimeouts), counter(CounterId::kMeshRequests))},
      {{"mesh.proxy_cost_ns_per_req", "ns/req"}, ns(ScopeId::kProxyCost) / req},
      {{"mesh.pool_hit_frac", "fraction"},
       ratio(counter(CounterId::kMeshPoolHits),
             counter(CounterId::kMeshPoolHits) + counter(CounterId::kMeshHandshakes))},
      {{"mesh.handshakes_per_kreq", "count/kreq"},
       1e3 * counter(CounterId::kMeshHandshakes) / req},
      {{"metrics.tsdb_samples_per_req", "samples/req"},
       counter(CounterId::kTsdbSamples) / req},
      {{"metrics.tsdb_append_ns_per_req", "ns/req"}, ns(ScopeId::kTsdbAppend) / req},
      {{"metrics.tsdb_compact_ns_per_req", "ns/req"}, ns(ScopeId::kTsdbCompact) / req},
      {{"metrics.scrape_self_ns_per_req", "ns/req"},
       (ns(ScopeId::kScraperScrape) - ns(ScopeId::kScraperPlan) -
        ns(ScopeId::kTsdbAppend) - ns(ScopeId::kTsdbCompact)) /
           req},
      {{"metrics.series_per_scrape", "series/scrape"},
       ratio(counter(CounterId::kScraperSeries), count(ScopeId::kScraperScrape))},
      {{"metrics.plan_rebuilds", "count"}, count(ScopeId::kScraperPlan)},
      {{"core.manage_self_ns_per_req", "ns/req"},
       (ns(ScopeId::kControllerManage) - ns(ScopeId::kControllerGather)) / req},
      {{"core.gather_ns_per_req", "ns/req"}, ns(ScopeId::kControllerGather) / req},
      {{"core.weight_update_frac", "fraction"},
       ratio(counter(CounterId::kWeightUpdates), count(ScopeId::kControllerManage))},
      {{"chaos.transitions", "count"}, counter(CounterId::kChaosTransitions)},
      {{"chaos.transition_ns_per_req", "ns/req"}, ns(ScopeId::kChaosTransition) / req},
      {{"lb.l3_p99_gain_pct", "%"}, gain},
      {{"common.rng_uniform_ns", "ns"}, host.uniform},
      {{"common.rng_exponential_ns", "ns"}, host.exponential},
      {{"common.rng_normal_ns", "ns"}, host.normal},
      {{"common.rng_lognormal_ns", "ns"}, host.lognormal},
      // The draw mix DESIGN.md §13 prices per request: one gap draw, two
      // WAN legs, one service draw, plus the picker's uniform.
      {{"common.rng_ns_per_req_est", "ns/req"},
       host.uniform + host.exponential + 2.0 * host.normal + host.lognormal},
      {{"ledger.unattributed_frac", "fraction"}, unattributed},
      {{"ledger.timer_bias_ns", "ns"}, host.timer_bias},
      {{"ledger.host_slowdown", "x"}, l3::percentile(slowdowns, 0.5)},
      {{"ledger.trace_overhead_frac", "fraction"}, ratio(traced_wall, timed_wall) - 1.0},
  };
  if (unattributed > kUnattributedBar) {
    w.flags.push_back("ledger.unattributed_frac " + fmt_num(unattributed) +
                      " is above 0.10");
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Stamp {
  unsigned hardware_threads = 0;
  std::size_t shards = 1;
  std::string build_type = L3_LEDGER_BUILD_TYPE;
  int obs = L3_OBS_ENABLED;
  std::string compiler = L3_LEDGER_COMPILER;
  std::string git_sha = L3_LEDGER_GIT_SHA;
  bool comparable() const { return build_type == "Release"; }
};

class JsonWriter {
 public:
  void open(std::string_view key = {}) {
    item(key);
    out_ += "{";
    first_.push_back(true);
  }
  void close() {
    first_.pop_back();
    out_ += "\n" + std::string(2 * first_.size(), ' ') + "}";
  }
  void num(std::string_view key, double v) {
    item(key);
    out_ += fmt_num(v);
  }
  void str(std::string_view key, std::string_view v) {
    item(key);
    out_ += quote(v);
  }
  void boolean(std::string_view key, bool v) {
    item(key);
    out_ += v ? "true" : "false";
  }
  void strings(std::string_view key, const std::vector<std::string>& v) {
    item(key);
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) out_ += (i ? ", " : "") + quote(v[i]);
    out_ += "]";
  }
  const std::string& text() const { return out_; }

 private:
  void item(std::string_view key) {
    if (!first_.empty()) {
      out_ += first_.back() ? "\n" : ",\n";
      first_.back() = false;
      out_ += std::string(2 * first_.size(), ' ');
    }
    if (!key.empty()) out_ += quote(key) + ": ";
  }
  std::string out_;
  std::vector<bool> first_;
};

std::string to_json(const Options& o, const Stamp& stamp, std::size_t rounds,
                    std::size_t attempted, const std::vector<std::string>& failures,
                    const std::vector<Workload>& order,
                    const std::array<WorkloadRuns, kWorkloadCount>& runs) {
  JsonWriter j;
  j.open();
  j.num("seed", static_cast<double>(o.seed));
  j.num("reps", o.reps);
  j.num("rounds", static_cast<double>(rounds));
  j.boolean("smoke", o.smoke);
  j.open("stamp");
  j.num("hardware_threads", stamp.hardware_threads);
  j.num("shards", static_cast<double>(stamp.shards));
  j.str("build_type", stamp.build_type);
  j.num("l3_obs", stamp.obs);
  j.str("compiler", stamp.compiler);
  j.str("git_sha", stamp.git_sha);
  j.boolean("comparable", stamp.comparable());
  j.close();
  j.num("attempted_runs", static_cast<double>(attempted));
  j.num("failed_runs", static_cast<double>(failures.size()));
  j.strings("failures", failures);
  j.open("workloads");
  for (const Workload id : order) {
    const WorkloadRuns& w = runs[static_cast<std::size_t>(id)];
    j.open(name_of(id));
    j.str("digest", w.digest);
    j.num("attempted_runs", static_cast<double>(w.attempted));
    j.num("timed_runs", static_cast<double>(w.timed.size()));
    j.num("setup_runs", static_cast<double>(w.setup.size()));
    j.num("traced_runs", w.traced ? 1 : 0);
    j.open("end_to_end");
    for (std::size_t m = 0; m < kEndToEnd.size(); ++m) {
      const Stat& s = w.e2e[m];
      if (s.n == 0) continue;
      j.open(kEndToEnd[m].metric.name);
      j.str("unit", kEndToEnd[m].metric.unit);
      j.num("median", s.median);
      j.num("q1", s.q1);
      j.num("q3", s.q3);
      j.num("min", s.min);
      j.num("max", s.max);
      j.num("n", static_cast<double>(s.n));
      j.close();
    }
    j.close();
    j.open("per_layer");
    for (const auto& [metric, value] : w.layers) {
      j.open(metric.name);
      j.str("unit", metric.unit);
      j.num("value", value);
      j.close();
    }
    j.close();
    j.strings("flags", w.flags);
    j.close();
  }
  j.close();
  j.close();
  return j.text() + "\n";
}

std::string fmt_short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, std::fabs(v) >= 1e4 ? "%.0f" : "%.4g", v);
  return buf;
}

std::string to_markdown(const Stamp& stamp, std::size_t rounds,
                        const std::vector<Workload>& order,
                        const std::array<WorkloadRuns, kWorkloadCount>& runs) {
  std::string md = "Median [q1, q3] over " + std::to_string(rounds) +
                   " interleaved reps, times at the reference host speed; build " +
                   stamp.build_type + ", " + stamp.compiler + ", " +
                   std::to_string(stamp.hardware_threads) +
                   " hardware threads, mega-sharded at " +
                   std::to_string(stamp.shards) + " shards, git " + stamp.git_sha +
                   ".\n\n| metric | unit |";
  std::string rule = "|---|---|";
  for (const Workload id : order) {
    md += " " + std::string(name_of(id)) + " |";
    rule += "---|";
  }
  md += "\n" + rule + "\n";
  for (std::size_t m = 0; m < kEndToEnd.size(); ++m) {
    md += "| `" + std::string(kEndToEnd[m].metric.name) + "` | " +
          std::string(kEndToEnd[m].metric.unit) + " |";
    for (const Workload id : order) {
      const Stat& s = runs[static_cast<std::size_t>(id)].e2e[m];
      md += " " + fmt_short(s.median) + " [" + fmt_short(s.q1) + ", " +
            fmt_short(s.q3) + "] |";
    }
    md += "\n";
  }
  const WorkloadRuns& any = runs[static_cast<std::size_t>(order.front())];
  if (any.layers.empty()) return md;
  md += "\n| per-layer metric | unit |";
  for (const Workload id : order) md += " " + std::string(name_of(id)) + " |";
  md += "\n" + rule + "\n";
  for (std::size_t i = 0; i < any.layers.size(); ++i) {
    md += "| `" + std::string(any.layers[i].first.name) + "` | " +
          std::string(any.layers[i].first.unit) + " |";
    for (const Workload id : order) {
      const auto& layers = runs[static_cast<std::size_t>(id)].layers;
      md += " " + (i < layers.size() ? fmt_short(layers[i].second) : "-") + " |";
    }
    md += "\n";
  }
  return md;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

int run_parent(const Options& o, const std::string& self) {
  Stamp stamp;
  stamp.hardware_threads = std::thread::hardware_concurrency();
  stamp.shards = sharded_shards(o.smoke);
  if (!stamp.comparable()) {
    std::cerr << "warning: l3_ledger built as '" << stamp.build_type
              << "', not Release; results are marked \"comparable\": false\n";
  }

  std::array<WorkloadRuns, kWorkloadCount> runs;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  const auto run_one = [&](Workload w, Mode mode) -> std::optional<Record> {
    std::vector<std::string> args = {
        self, "--child=" + std::string(name_of(w)),
        "--mode=" + std::string(kModeNames[static_cast<int>(mode)]),
        "--seed=" + std::to_string(o.seed)};
    if (o.smoke) args.push_back("--smoke");
    ++attempted;
    WorkloadRuns& wr = runs[static_cast<std::size_t>(w)];
    ++wr.attempted;
    ChildResult res = spawn_child(args);
    const std::string what = std::string(name_of(w)) + " " +
                             std::string(kModeNames[static_cast<int>(mode)]) + " run";
    if (!res.record) {
      failures.push_back(what + ": " + res.error);
      std::cerr << "ledger: " << failures.back() << "\n";
      return std::nullopt;
    }
    if (res.record->at("requests") <= 0.0 && mode != Mode::kSetup) {
      failures.push_back(what + ": no requests completed");
      std::cerr << "ledger: " << failures.back() << "\n";
      return std::nullopt;
    }
    if (mode != Mode::kSetup) {
      const std::string& digest = res.record->str["digest"];
      if (wr.digest.empty()) wr.digest = digest;
      if (digest != wr.digest) {
        failures.push_back(what + ": digest " + digest + " differs from " +
                           wr.digest);
        std::cerr << "ledger: " << failures.back() << "\n";
        return std::nullopt;
      }
    }
    return res.record;
  };

  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // mega and mega-sharded share inputs, so each is the other's digest gate
  // and shard-scaling baseline: choosing one runs the other alongside.
  std::optional<Workload> companion;
  const auto chosen = [&o](Workload w) {
    return std::find(o.workloads.begin(), o.workloads.end(), w) != o.workloads.end();
  };
  if (chosen(Workload::kMega) != chosen(Workload::kMegaSharded)) {
    companion = chosen(Workload::kMega) ? Workload::kMegaSharded : Workload::kMega;
  }
  std::size_t rounds = 0;
  while (rounds < static_cast<std::size_t>(o.reps) || elapsed() < o.seconds) {
    for (const Workload w : o.workloads) {
      if (auto r = run_one(w, Mode::kTimed)) {
        runs[static_cast<std::size_t>(w)].timed.push_back(std::move(*r));
      }
    }
    if (companion && (o.trace || rounds == 0)) {
      if (auto r = run_one(*companion, Mode::kTimed)) {
        runs[static_cast<std::size_t>(*companion)].timed.push_back(std::move(*r));
      }
    }
    ++rounds;
  }
  // Set-up is a few milliseconds: take at least five samples for a median.
  const std::size_t setup_reps = o.smoke ? rounds : std::max<std::size_t>(rounds, 5);
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    for (const Workload w : o.workloads) {
      if (auto r = run_one(w, Mode::kSetup)) {
        runs[static_cast<std::size_t>(w)].setup.push_back(std::move(*r));
      }
    }
  }
  if (o.trace) {
    for (const Workload w : o.workloads) {
      runs[static_cast<std::size_t>(w)].traced = run_one(w, Mode::kTraced);
    }
  }

  WorkloadRuns& mega = runs[static_cast<std::size_t>(Workload::kMega)];
  WorkloadRuns& sharded = runs[static_cast<std::size_t>(Workload::kMegaSharded)];
  if (!mega.digest.empty() && !sharded.digest.empty() &&
      mega.digest != sharded.digest) {
    failures.push_back("mega digest " + mega.digest +
                       " differs from mega-sharded digest " + sharded.digest);
    std::cerr << "ledger: " << failures.back() << "\n";
  }

  for (const Workload w : o.workloads) {
    WorkloadRuns& wr = runs[static_cast<std::size_t>(w)];
    if (wr.timed.empty() || wr.setup.empty()) {
      failures.push_back(std::string(name_of(w)) + ": no successful runs");
      continue;
    }
    summarise_e2e(wr);
  }
  const HostCosts host = o.trace ? measure_host() : HostCosts{};
  for (const Workload w : o.workloads) {
    WorkloadRuns& wr = runs[static_cast<std::size_t>(w)];
    if (wr.traced && !wr.timed.empty() && !wr.setup.empty()) {
      summarise_layers(w, wr, mega.timed.empty() ? nullptr : &mega,
                       sharded.timed.empty() ? nullptr : &sharded, host);
      wr.layers.push_back({{"ledger.failed_runs", "count"},
                           static_cast<double>(failures.size())});
    }
    for (const std::string& flag : wr.flags) {
      std::cerr << "ledger: " << name_of(w) << ": " << flag << "\n";
    }
  }

  std::cout << to_markdown(stamp, rounds, o.workloads, runs);
  if (!o.json.empty() &&
      !write_file(o.json, to_json(o, stamp, rounds, attempted, failures,
                                  o.workloads, runs))) {
    std::cerr << "ledger: cannot write " << o.json << "\n";
    return 1;
  }
  if (!o.markdown.empty() &&
      !write_file(o.markdown, to_markdown(stamp, rounds, o.workloads, runs))) {
    std::cerr << "ledger: cannot write " << o.markdown << "\n";
    return 1;
  }
  std::cout << "ledger.failed_runs " << failures.size() << "\n";
  return failures.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Strict argument parsing.

std::optional<Workload> parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < kWorkloadCount; ++i) {
    if (kWorkloadNames[i] == name) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty() || text.front() == '+' || text.front() == '-') return false;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), out);
  return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  std::string workload = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    const bool has_value = eq != std::string_view::npos;
    if (key == "--smoke" && !has_value) {
      o.smoke = true;
    } else if (!has_value || value.empty()) {
      return std::nullopt;
    } else if (key == "--workload") {
      workload = value;
    } else if (key == "--reps") {
      if (!parse_number(value, o.reps) || o.reps < 1 || o.reps > 1000) return std::nullopt;
    } else if (key == "--seed") {
      if (!parse_number(value, o.seed)) return std::nullopt;
    } else if (key == "--seconds") {
      if (!parse_number(value, o.seconds) || !(o.seconds <= 3600.0)) return std::nullopt;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      o.trace = value == "1";
    } else if (key == "--json") {
      o.json = value;
    } else if (key == "--markdown") {
      o.markdown = value;
    } else if (key == "--child") {
      o.child = parse_workload(value);
      if (!o.child) return std::nullopt;
    } else if (key == "--mode") {
      const auto it = std::find(kModeNames.begin(), kModeNames.end(), value);
      if (it == kModeNames.end()) return std::nullopt;
      o.mode = static_cast<Mode>(it - kModeNames.begin());
    } else {
      return std::nullopt;
    }
  }
  if (o.smoke) o.reps = 1;
  if (workload == "all") {
    for (std::size_t i = 0; i < kWorkloadCount; ++i) {
      o.workloads.push_back(static_cast<Workload>(i));
    }
    return o;
  }
  const auto w = parse_workload(workload);
  if (!w) return std::nullopt;
  o.workloads = {*w};
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_args(argc, argv);
  if (!options) {
    std::cerr << kUsage;
    return 2;
  }
  if (options->child) {
    return run_child(*options->child, options->mode, options->seed,
                     options->smoke);
  }
  return run_parent(*options, argv[0]);
}
