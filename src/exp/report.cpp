#include "l3/exp/report.h"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace l3::exp {

namespace {

void write_escaped(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Shortest round-trip decimal representation: deterministic for a given
/// value, locale-independent.
void write_number(std::ostream& os, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  double parsed = 0.0;
  for (int precision = 1; precision <= 16; ++precision) {
    char candidate[40];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) {
      os << candidate;
      return;
    }
  }
  os << buf;
}

void write_labels(std::ostream& os, const std::vector<std::string>& labels) {
  os << '[';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) os << ", ";
    write_escaped(os, labels[i]);
  }
  os << ']';
}

void write_cell(std::ostream& os, const ExperimentSpec& spec,
                const CellResult& cell, const char* indent) {
  const auto& run = cell.data.run;
  os << indent << "{\n";
  os << indent << "  \"scenario\": ";
  write_escaped(os, spec.scenarios[cell.cell.scenario]);
  os << ",\n" << indent << "  \"policy\": ";
  write_escaped(os, spec.policies[cell.cell.policy]);
  os << ",\n" << indent << "  \"variant\": ";
  write_escaped(os, spec.variants[cell.cell.variant]);
  os << ",\n"
     << indent << "  \"rep\": " << cell.cell.rep << ",\n"
     << indent << "  \"seed\": " << cell.seed << ",\n"
     << indent << "  \"requests\": " << run.requests << ",\n"
     << indent << "  \"success_rate\": ";
  write_number(os, run.summary.success_rate);
  os << ",\n" << indent << "  \"latency\": {";
  const auto& latency = run.summary.latency;
  os << "\"mean\": ";
  write_number(os, latency.mean);
  os << ", \"p50\": ";
  write_number(os, latency.p50);
  os << ", \"p90\": ";
  write_number(os, latency.p90);
  os << ", \"p99\": ";
  write_number(os, latency.p99);
  os << ", \"max\": ";
  write_number(os, latency.max);
  os << "},\n" << indent << "  \"mean_attempts\": ";
  write_number(os, run.mean_attempts);
  os << ",\n"
     << indent << "  \"weight_updates\": " << run.weight_updates << ",\n"
     << indent << "  \"traffic_share\": [";
  for (std::size_t i = 0; i < run.traffic_share.size(); ++i) {
    if (i > 0) os << ", ";
    write_number(os, run.traffic_share[i]);
  }
  os << ']';
  if (!cell.data.metrics.empty()) {
    os << ",\n" << indent << "  \"metrics\": {";
    for (std::size_t i = 0; i < cell.data.metrics.size(); ++i) {
      if (i > 0) os << ", ";
      write_escaped(os, cell.data.metrics[i].first);
      os << ": ";
      write_number(os, cell.data.metrics[i].second);
    }
    os << '}';
  }
  os << '\n' << indent << '}';
}

/// The deterministic self-profile section: ProfileBlocks merged across every
/// cell of every grid in grid order (merge is element-wise summation, so the
/// result is identical for any cell execution order — the jobs-invariance
/// contract). Only counts are serialized; wall-clock timing never enters the
/// report (it goes to stderr and the audit exposition instead).
void write_profile(std::ostream& os, const obs::ProfileBlock& profile) {
  os << ",\n  \"profile\": {\n    \"cells\": " << profile.cells
     << ",\n    \"subsystems\": [";
  bool first = true;
  for (std::size_t i = 0; i < obs::kScopeCount; ++i) {
    if (profile.scope_count[i] == 0) continue;
    os << (first ? "" : ",") << "\n      {\"name\": ";
    write_escaped(os, obs::scope_name(static_cast<obs::ScopeId>(i)));
    os << ", \"count\": " << profile.scope_count[i]
       << ", \"timed\": " << profile.scope_timed[i] << '}';
    first = false;
  }
  os << (first ? "]" : "\n    ]") << ",\n    \"counters\": [";
  first = true;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    if (profile.counters[i] == 0) continue;
    os << (first ? "" : ",") << "\n      {\"name\": ";
    write_escaped(os, obs::counter_name(static_cast<obs::CounterId>(i)));
    os << ", \"value\": " << profile.counters[i] << '}';
    first = false;
  }
  os << (first ? "]" : "\n    ]") << ",\n    \"rings\": [";
  first = true;
  for (std::size_t i = 0; i < obs::kDomainCount; ++i) {
    if (profile.ring_recorded[i] == 0) continue;
    os << (first ? "" : ",") << "\n      {\"domain\": ";
    write_escaped(os, obs::domain_name(static_cast<obs::Domain>(i)));
    os << ", \"recorded\": " << profile.ring_recorded[i]
       << ", \"dropped\": " << profile.ring_dropped[i] << '}';
    first = false;
  }
  os << (first ? "]" : "\n    ]") << ",\n    \"batch_hist\": [";
  first = true;
  for (std::size_t i = 0; i < obs::kBatchBucketCount; ++i) {
    if (profile.batch_hist[i] == 0) continue;
    os << (first ? "" : ",") << "\n      {\"events\": ";
    write_escaped(os, obs::batch_bucket_label(i));
    os << ", \"batches\": " << profile.batch_hist[i] << '}';
    first = false;
  }
  os << (first ? "]" : "\n    ]") << "\n  }";
}

}  // namespace

void Report::add_grid(const ExperimentSpec& spec,
                      const std::vector<CellResult>& results) {
  Grid grid;
  grid.spec = spec;
  grid.spec.cell = nullptr;  // labels + seed are all serialization needs
  grid.results = results;
  grids_.push_back(std::move(grid));
}

void Report::add_table(std::string title, const Table& table) {
  tables_.push_back({std::move(title), table.headers(), table.rows()});
}

void Report::write(std::ostream& os) const {
  os << "{\n  \"experiment\": ";
  write_escaped(os, experiment_);
  os << ",\n  \"grids\": [";
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    const auto& grid = grids_[g];
    os << (g > 0 ? "," : "") << "\n    {\n      \"name\": ";
    write_escaped(os, grid.spec.name);
    os << ",\n      \"seed\": " << grid.spec.seed
       << ",\n      \"repetitions\": " << grid.spec.repetitions
       << ",\n      \"scenarios\": ";
    write_labels(os, grid.spec.scenarios);
    os << ",\n      \"policies\": ";
    write_labels(os, grid.spec.policies);
    os << ",\n      \"variants\": ";
    write_labels(os, grid.spec.variants);
    os << ",\n      \"cells\": [";
    for (std::size_t i = 0; i < grid.results.size(); ++i) {
      os << (i > 0 ? "," : "") << '\n';
      write_cell(os, grid.spec, grid.results[i], "        ");
    }
    os << (grid.results.empty() ? "]" : "\n      ]") << "\n    }";
  }
  os << (grids_.empty() ? "]" : "\n  ]") << ",\n  \"tables\": [";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& table = tables_[t];
    os << (t > 0 ? "," : "") << "\n    {\n      \"title\": ";
    write_escaped(os, table.title);
    os << ",\n      \"headers\": ";
    write_labels(os, table.headers);
    os << ",\n      \"rows\": [";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      os << (r > 0 ? "," : "") << "\n        ";
      write_labels(os, table.rows[r]);
    }
    os << (table.rows.empty() ? "]" : "\n      ]") << "\n    }";
  }
  os << (tables_.empty() ? "]" : "\n  ]");
  const obs::ProfileBlock profile = merged_profile();
  if (!profile.empty()) write_profile(os, profile);
  os << "\n}\n";
}

obs::ProfileBlock Report::merged_profile() const {
  obs::ProfileBlock merged;
  for (const auto& grid : grids_) {
    for (const auto& cell : grid.results) {
      if (!cell.data.run.profile.empty()) {
        merged.merge(cell.data.run.profile);
      }
    }
  }
  return merged;
}

bool Report::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace l3::exp
