#include "l3/trace/export.h"

#include "l3/obs/export.h"

#include <cstdio>
#include <ostream>

namespace l3::trace {
namespace {

/// Microseconds, the unit of the Chrome trace-event `ts`/`dur` fields.
double to_us(SimTime seconds) { return seconds * 1e6; }

/// Prints a double without locale surprises and without exponent notation
/// blowing up trace viewers (3 decimals of a microsecond = nanoseconds).
std::string fmt_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

void write_event_prefix(std::ostream& os, bool& first) {
  if (!first) os << ",\n";
  first = false;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(const std::deque<TraceRecord>& traces,
                        std::ostream& os) {
  write_chrome_trace(traces, std::span<const FaultMarker>{}, os);
}

void write_chrome_trace(const std::deque<TraceRecord>& traces,
                        std::span<const FaultMarker> markers,
                        std::ostream& os) {
  write_chrome_trace(traces, markers, nullptr, os);
}

void write_chrome_trace(const std::deque<TraceRecord>& traces,
                        std::span<const FaultMarker> markers,
                        const obs::Snapshot* snapshot, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  std::size_t pid = 0;
  for (const TraceRecord& trace : traces) {
    // Process metadata: one process per trace, named after the root.
    write_event_prefix(os, first);
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"trace " << trace.trace_id << ": "
       << json_escape(trace.root_name) << " ("
       << fmt_us(to_us(trace.latency) / 1000.0) << " ms, "
       << to_string(trace.status) << ")\"}}";
    std::size_t tid = 0;
    for (const Span& span : trace.spans) {
      write_event_prefix(os, first);
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
         << json_escape(span.name) << "\"}}";
      write_event_prefix(os, first);
      os << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
         << to_string(span.kind) << "\",\"ph\":\"X\",\"ts\":"
         << fmt_us(to_us(span.start)) << ",\"dur\":"
         << fmt_us(to_us(span.duration())) << ",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"args\":{\"trace_id\":" << trace.trace_id
         << ",\"span_id\":" << span.span_id << ",\"parent_id\":"
         << span.parent_id << ",\"cluster\":\"" << json_escape(span.cluster)
         << "\",\"service\":\"" << json_escape(span.service)
         << "\",\"status\":\"" << to_string(span.status) << "\""
         << (span.truncated ? ",\"truncated\":true" : "") << "}}";
      ++tid;
    }
    ++pid;
  }
  if (!markers.empty()) {
    // Fault transitions as instant events with global scope ("s":"g"), so
    // viewers draw a full-height line at each fault boundary.
    write_event_prefix(os, first);
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"faults\"}}";
    for (const FaultMarker& marker : markers) {
      write_event_prefix(os, first);
      os << "{\"name\":\"" << json_escape(marker.name) << "\",\"cat\":\""
         << "fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":"
         << fmt_us(to_us(marker.time)) << ",\"pid\":" << pid
         << ",\"tid\":0,\"args\":{\"phase\":\"" << json_escape(marker.phase)
         << "\"}}";
    }
    ++pid;
  }
  if (snapshot != nullptr) {
    obs::write_chrome_fragment(*snapshot, pid, first, os);
  }
  os << "\n]}\n";
}

}  // namespace l3::trace
