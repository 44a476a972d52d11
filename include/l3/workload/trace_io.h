// CSV import/export for scenario traces, so users can replay their own
// production captures (the TIER Mobility role) instead of the synthetic
// library, and inspect generated scenarios in external tools.
//
// Format (one row per time step):
//   # scenario <name> clusters=<C> duration=<D> dt=<dt>
//   t,rps,c0_median,c0_p99,c0_success,c1_median,c1_p99,c1_success,...
// Latencies in seconds, success rates in [0,1].
#pragma once

#include "l3/workload/scenario.h"

#include <iosfwd>
#include <string>

namespace l3::workload {

/// Writes a trace as CSV.
void save_trace_csv(const ScenarioTrace& trace, std::ostream& os);

/// Writes a trace to a file; throws ContractViolation on I/O failure.
void save_trace_csv(const ScenarioTrace& trace, const std::string& path);

/// Parses a trace from CSV (the exact format save_trace_csv emits).
/// Throws ContractViolation on malformed input: an unparsable or
/// out-of-range field, a non-finite value, a non-positive rps, a negative
/// latency, or a success rate outside [0, 1].
ScenarioTrace load_trace_csv(std::istream& is);

/// Reads a trace from a file; throws ContractViolation on I/O failure.
ScenarioTrace load_trace_csv(const std::string& path);

}  // namespace l3::workload
