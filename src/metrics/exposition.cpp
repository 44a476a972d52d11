#include "l3/metrics/exposition.h"

#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace l3::metrics {
namespace {

/// Splits a stored series key `name{a=1,b=2}` into name and label body.
std::pair<std::string, std::string> split_key(const std::string& key) {
  const auto brace = key.find('{');
  if (brace == std::string::npos) return {key, ""};
  std::string labels = key.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.pop_back();
  return {key.substr(0, brace), labels};
}

/// Escapes a label VALUE per the Prometheus text exposition format 0.0.4:
/// backslash, double-quote, and line feed must be backslash-escaped inside
/// the quoted value (the spec escapes nothing else).
std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Re-renders stored labels (`a=1,b=2`) with Prometheus quoting, optionally
/// appending one extra label.
std::string render_labels(const std::string& body, const std::string& extra) {
  std::ostringstream out;
  bool first = true;
  auto emit = [&](const std::string& kv) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) return;
    out << (first ? "" : ",") << kv.substr(0, eq) << "=\""
        << escape_label_value(std::string_view(kv).substr(eq + 1)) << "\"";
    first = false;
  };
  std::string field;
  std::istringstream ss(body);
  while (std::getline(ss, field, ',')) {
    if (!field.empty()) emit(field);
  }
  if (!extra.empty()) {
    out << (first ? "" : ",") << extra;
    first = false;
  }
  if (first) return "";
  // Appended rather than `"{" + out.str()`: GCC 12's -O3 -Wrestrict
  // misreads that operator+ overload's insert-at-front as an overlap.
  std::string labels = "{";
  labels += out.str();
  labels += '}';
  return labels;
}

/// Emits a `# TYPE` comment the first time a metric family appears.
void emit_type(std::ostream& os, std::set<std::string>& seen,
               const std::string& family, const char* type) {
  if (seen.insert(family).second) {
    os << "# TYPE " << family << ' ' << type << '\n';
  }
}

constexpr std::string_view kSumSuffix = "_sum";

}  // namespace

void write_exposition(const Registry& registry, std::ostream& os) {
  // Pass 1: index histogram keys so `<name>_sum` counters can be folded
  // into their histogram family instead of appearing as standalone
  // counters, and collect counter values for the sum lookup.
  std::set<std::string> histogram_keys;
  std::map<std::string, double> counter_values;
  registry.for_each([&](const std::string& key,
                        double value) { counter_values.emplace(key, value); },
                    [](const std::string&, double) {},
                    [&](const std::string& key, const HistogramSeries&) {
                      histogram_keys.insert(key);
                    });

  /// The histogram key a `<name>_sum` counter belongs to, or "" when it is
  /// an ordinary counter.
  const auto histogram_of_sum = [&](const std::string& key) -> std::string {
    const auto [name, labels] = split_key(key);
    if (name.size() <= kSumSuffix.size() ||
        name.compare(name.size() - kSumSuffix.size(), kSumSuffix.size(),
                     kSumSuffix) != 0) {
      return "";
    }
    const std::string base = name.substr(0, name.size() - kSumSuffix.size());
    const std::string histogram_key =
        labels.empty() ? base : base + "{" + labels + "}";
    return histogram_keys.count(histogram_key) > 0 ? histogram_key : "";
  };

  std::set<std::string> typed;
  registry.for_each(
      [&](const std::string& key, double value) {
        if (!histogram_of_sum(key).empty()) return;  // folded into histogram
        const auto [name, labels] = split_key(key);
        emit_type(os, typed, name, "counter");
        os << name << render_labels(labels, "") << ' ' << value << '\n';
      },
      [&](const std::string& key, double value) {
        const auto [name, labels] = split_key(key);
        emit_type(os, typed, name, "gauge");
        os << name << render_labels(labels, "") << ' ' << value << '\n';
      },
      [&](const std::string& key, const HistogramSeries& histogram) {
        const auto [name, labels] = split_key(key);
        emit_type(os, typed, name, "histogram");
        const auto cumulative = histogram.cumulative_counts();
        const auto& bounds = histogram.bounds();
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          std::ostringstream le;
          le << "le=\"" << bounds[i] << "\"";
          os << name << "_bucket" << render_labels(labels, le.str()) << ' '
             << cumulative[i] << '\n';
        }
        os << name << "_bucket" << render_labels(labels, "le=\"+Inf\"") << ' '
           << cumulative.back() << '\n';
        const std::string sum_key = labels.empty()
                                        ? name + std::string(kSumSuffix)
                                        : name + std::string(kSumSuffix) +
                                              "{" + labels + "}";
        const auto sum_it = counter_values.find(sum_key);
        if (sum_it != counter_values.end()) {
          os << name << "_sum" << render_labels(labels, "") << ' '
             << sum_it->second << '\n';
        }
        os << name << "_count" << render_labels(labels, "") << ' '
           << histogram.total_count() << '\n';
      });
}

std::string exposition_text(const Registry& registry) {
  std::ostringstream os;
  write_exposition(registry, os);
  return os.str();
}

}  // namespace l3::metrics
