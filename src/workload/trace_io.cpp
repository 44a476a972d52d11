#include "l3/workload/trace_io.h"

#include "l3/common/assert.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

namespace l3::workload {
namespace {

std::vector<std::string> split_line(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, sep)) out.push_back(field);
  return out;
}

/// Parses all of `s` as a T with std::from_chars: no locale, no leading
/// whitespace or sign for unsigned counts, and a ContractViolation (never
/// a std exception) on anything else, including out-of-range values.
template <typename T>
T parse_whole(std::string_view s) {
  T v{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  L3_EXPECTS(ec == std::errc{} && ptr == end);
  return v;
}

double parse_finite(std::string_view s) {
  const double v = parse_whole<double>(s);
  L3_EXPECTS(std::isfinite(v));
  return v;
}

}  // namespace

void save_trace_csv(const ScenarioTrace& trace, std::ostream& os) {
  os << "# scenario " << trace.name() << " clusters=" << trace.cluster_count()
     << " duration=" << trace.duration() << " dt=" << trace.dt() << '\n';
  os << "t,rps";
  for (std::size_t c = 0; c < trace.cluster_count(); ++c) {
    os << ",c" << c << "_median,c" << c << "_p99,c" << c << "_success";
  }
  os << '\n';
  os << std::setprecision(10);
  for (std::size_t s = 0; s < trace.steps(); ++s) {
    const double t = static_cast<double>(s) * trace.dt();
    os << t << ',' << trace.rps_at(t);
    for (std::size_t c = 0; c < trace.cluster_count(); ++c) {
      const TracePoint& p = trace.at(c, s);
      os << ',' << p.median << ',' << p.p99 << ',' << p.success_rate;
    }
    os << '\n';
  }
}

void save_trace_csv(const ScenarioTrace& trace, const std::string& path) {
  std::ofstream file(path);
  L3_EXPECTS(file.good());
  save_trace_csv(trace, file);
  L3_ENSURES(file.good());
}

ScenarioTrace load_trace_csv(std::istream& is) {
  std::string header;
  L3_EXPECTS(static_cast<bool>(std::getline(is, header)));
  L3_EXPECTS(header.rfind("# scenario ", 0) == 0);

  // Parse "# scenario <name> clusters=<C> duration=<D> dt=<dt>".
  std::istringstream hs(header);
  std::string hash, kw, name, clusters_kv, duration_kv, dt_kv;
  hs >> hash >> kw >> name >> clusters_kv >> duration_kv >> dt_kv;
  auto kv_value = [](const std::string& kv, const char* key) {
    const std::string prefix = std::string(key) + "=";
    L3_EXPECTS(kv.rfind(prefix, 0) == 0);
    return kv.substr(prefix.size());
  };
  const auto clusters =
      parse_whole<std::size_t>(kv_value(clusters_kv, "clusters"));
  const double duration = parse_finite(kv_value(duration_kv, "duration"));
  const double dt = parse_finite(kv_value(dt_kv, "dt"));

  std::string columns;
  L3_EXPECTS(static_cast<bool>(std::getline(is, columns)));  // column header

  // Every data row is read before the trace is sized from the header: the
  // cluster count must match each row's width and the step count the
  // number of rows, so neither can ask for more than the file holds (nor
  // reach the size_t cast of duration / dt with an out-of-range ratio).
  std::vector<std::vector<std::string>> rows;
  for (std::string line; std::getline(is, line);) {
    if (line.empty()) continue;
    rows.push_back(split_line(line, ','));
    const std::size_t width = rows.back().size();
    L3_EXPECTS(width >= 2 && (width - 2) % 3 == 0 &&
               (width - 2) / 3 == clusters);
  }
  const double steps = duration / dt;
  const auto row_count = static_cast<double>(rows.size());
  L3_EXPECTS(steps >= row_count && steps < row_count + 1.0);

  ScenarioTrace trace(name, clusters, duration, dt);
  for (std::size_t step = 0; step < rows.size(); ++step) {
    const auto& fields = rows[step];
    trace.set_rps(step, parse_finite(fields[1]));
    for (std::size_t c = 0; c < clusters; ++c) {
      TracePoint& p = trace.at(c, step);
      p.median = parse_finite(fields[2 + 3 * c]);
      p.p99 = parse_finite(fields[3 + 3 * c]);
      p.success_rate = parse_finite(fields[4 + 3 * c]);
      L3_EXPECTS(p.median >= 0.0 && p.p99 >= 0.0);
      L3_EXPECTS(p.success_rate >= 0.0 && p.success_rate <= 1.0);
    }
  }
  return trace;
}

ScenarioTrace load_trace_csv(const std::string& path) {
  std::ifstream file(path);
  L3_EXPECTS(file.good());
  return load_trace_csv(file);
}

}  // namespace l3::workload
