// Trace exporters. `write_chrome_trace` renders completed traces in the
// Chrome trace-event JSON format ("X" complete events inside a
// `traceEvents` array), loadable in Perfetto / chrome://tracing: each trace
// becomes one process (pid), each span one lane (tid), with cluster /
// service / status / parentage carried in `args`.
#pragma once

#include "l3/obs/recorder.h"
#include "l3/trace/tracer.h"

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace l3::trace {

/// Escapes a string for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view s);

/// A point-in-time annotation of an injected fault transition, rendered as
/// a Chrome "instant" event so fault windows line up with the request spans
/// they disturb. Produced by chaos::FaultInjector (which the trace module
/// deliberately does not depend on).
struct FaultMarker {
  SimTime time = 0.0;
  std::string name;   ///< e.g. "crash:api@cluster-2"
  std::string phase;  ///< "begin" or "end"
};

/// Writes `traces` as Chrome trace-event JSON. Deterministic: output depends
/// only on the trace contents.
void write_chrome_trace(const std::deque<TraceRecord>& traces,
                        std::ostream& os);

/// As above, additionally rendering `markers` as global instant events in a
/// dedicated "faults" process (pid one past the last trace).
void write_chrome_trace(const std::deque<TraceRecord>& traces,
                        std::span<const FaultMarker> markers,
                        std::ostream& os);

/// As above, additionally rendering an obs snapshot — `rt.counter.*` /
/// `rt.gauge.*` counter tracks ("C" events) plus flight-recorder ring
/// instants — in a dedicated "obs" process after the faults process.
/// `snapshot` may be null (same output as the two-argument overload).
void write_chrome_trace(const std::deque<TraceRecord>& traces,
                        std::span<const FaultMarker> markers,
                        const obs::Snapshot* snapshot, std::ostream& os);

}  // namespace l3::trace
