#include "l3/exp/args.h"

#include <cstdlib>
#include <iostream>
#include <limits>

namespace l3::exp {

std::optional<long long> parse_uint(std::string_view text) {
  if (text.empty()) return std::nullopt;
  long long value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    if (value > (std::numeric_limits<long long>::max() - (c - '0')) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + (c - '0');
  }
  return value;
}

namespace {

/// Consumes the value of a flag at argv[i]; advances i past it. The value
/// must fit in an int: a wider one would wrap into a sentinel on the cast.
std::optional<int> take_int_value(int argc, char** argv, int& i,
                                  std::string_view flag, long long min_value,
                                  std::string* error) {
  if (i + 1 >= argc) {
    *error = std::string(flag) + " requires a value";
    return std::nullopt;
  }
  const std::string_view text = argv[++i];
  const auto value = parse_uint(text);
  if (!value || *value < min_value ||
      *value > std::numeric_limits<int>::max()) {
    *error = std::string(flag) + " expects an integer in [" +
             std::to_string(min_value) + ", " +
             std::to_string(std::numeric_limits<int>::max()) + "], got '" +
             std::string(text) + "'";
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

}  // namespace

std::optional<BenchArgs> try_parse_bench_args(int argc, char** argv,
                                              std::string* error) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      args.fast = true;
    } else if (arg == "--profile") {
      args.profile = true;
    } else if (arg == "--no-batch") {
      args.batch = 1;
    } else if (arg.rfind("--batch=", 0) == 0) {
      const auto value = parse_uint(arg.substr(8));
      if (!value || *value < 1 ||
          *value > std::numeric_limits<int>::max()) {
        *error = "--batch expects an integer >= 1, got '" +
                 std::string(arg.substr(8)) + "'";
        return std::nullopt;
      }
      args.batch = static_cast<int>(*value);
    } else if (arg == "--batch") {
      // The value is attached (--batch=N), matching --no-batch's shape; a
      // detached value would make `--batch --fast` ambiguous.
      *error = "--batch requires an attached value: --batch=N";
      return std::nullopt;
    } else if (arg.rfind("--shards=", 0) == 0) {
      const auto value = parse_uint(arg.substr(9));
      if (!value || *value < 1 ||
          *value > std::numeric_limits<int>::max()) {
        *error = "--shards expects an integer >= 1, got '" +
                 std::string(arg.substr(9)) + "'";
        return std::nullopt;
      }
      args.shards = static_cast<int>(*value);
    } else if (arg == "--shards") {
      *error = "--shards requires an attached value: --shards=N";
      return std::nullopt;
    } else if (arg.rfind("--proxy-cost=", 0) == 0) {
      const auto value = parse_uint(arg.substr(13));
      if (!value || *value > std::numeric_limits<int>::max()) {
        *error = "--proxy-cost expects an integer >= 0 (microseconds), got '" +
                 std::string(arg.substr(13)) + "'";
        return std::nullopt;
      }
      args.proxy_cost_us = static_cast<int>(*value);
    } else if (arg == "--proxy-cost") {
      *error = "--proxy-cost requires an attached value: --proxy-cost=US";
      return std::nullopt;
    } else if (arg == "--reps") {
      const auto value = take_int_value(argc, argv, i, arg, 1, error);
      if (!value) return std::nullopt;
      args.reps = *value;
    } else if (arg == "--jobs") {
      const auto value = take_int_value(argc, argv, i, arg, 1, error);
      if (!value) return std::nullopt;
      args.jobs = *value;
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        *error = "--json requires a path";
        return std::nullopt;
      }
      args.json = argv[++i];
      if (args.json.empty()) {
        *error = "--json requires a non-empty path";
        return std::nullopt;
      }
    } else {
      *error = "unknown argument '" + std::string(arg) + "'";
      return std::nullopt;
    }
  }
  return args;
}

std::string bench_usage(std::string_view argv0) {
  std::string usage = "usage: ";
  usage += argv0;
  usage +=
      " [--reps N] [--fast] [--jobs N] [--json PATH] [--profile]\n"
      "       [--batch=N] [--no-batch] [--shards=N] [--proxy-cost=US]\n"
      "  --reps N     repetitions per configuration (default: the paper's "
      "count)\n"
      "  --fast       shrink durations/repetitions for smoke runs\n"
      "  --jobs N     parallel simulation cells (default: hardware "
      "concurrency);\n"
      "               results are byte-identical for every N\n"
      "  --json PATH  also write the unified machine-readable report\n"
      "  --profile    self-profile every cell (flight recorder + timers);\n"
      "               adds a deterministic `profile` block to the JSON and\n"
      "               a wall-time table on stderr; results are unchanged\n"
      "  --batch=N    events per dispatch batch / arrivals per client block\n"
      "               (default 64); results are byte-identical for every N\n"
      "  --no-batch   per-event dispatch (equivalent to --batch=1)\n"
      "  --shards=N   simulator shards for the conservative-lookahead\n"
      "               parallel engine (default 1); results are\n"
      "               byte-identical for every N\n"
      "  --proxy-cost=US\n"
      "               per-request sidecar CPU in microseconds for the\n"
      "               data-plane cost model (default 0 = model off;\n"
      "               0 is byte-identical to a cost-free run)\n";
  return usage;
}

BenchArgs parse_bench_args(int argc, char** argv) {
  std::string error;
  if (auto args = try_parse_bench_args(argc, argv, &error)) return *args;
  std::cerr << "error: " << error << '\n'
            << bench_usage(argc > 0 ? argv[0] : "bench");
  std::exit(2);
}

}  // namespace l3::exp
