#!/usr/bin/env bash
# The pre-merge gate; any failure aborts immediately. In order:
#   * portable-RNG gate: no <random> engine or distribution in src/ or
#     include/;
#   * per preset: configure, build and ctest. asan, ubsan and default run
#     the whole suite; tsan runs the concurrency-sensitive subset named by
#     its -R filter below;
#   * with the default preset: jobs-invariance smoke diffs on figure benches
#     (plain, chaos, the DSB call graph, and --profile), a --proxy-cost=0
#     zero-cost identity diff, the seed-42 ledger digest gate (bench/ledger,
#     one Release rep per workload against pinned digests), and an
#     L3_OBS=OFF byte-identical golden;
#   * the Release flight-recorder overhead gate (trace_overhead --obs-gate).
# Structural performance bugs (a picker rebuilt per pick, a scrape plan
# rebuilt per tick, a barrier that synchronises per event, a
# proxy cost model that stops feeding the latency signal) are ctest
# invariants; wall-clock regressions are the benchmark's A/B (BENCHMARK.json).
# A full run writes no tracked file.
#
# Usage: scripts/check.sh [preset...]
#   With no arguments, runs: asan ubsan tsan default.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [[ ${#presets[@]} -eq 0 ]]; then
  presets=(asan ubsan tsan default)
fi

# Portable-RNG gate: the library's streams come from the in-repo Mt64 engine
# and samplers (common/rng.h), whose bits do not depend on the standard
# library. Code under src/ and include/ must not reach for <random>'s
# engines or implementation-defined distributions; comment lines (which
# cite the libstdc++ algorithms reproduced) are exempt.
echo "==> portable-RNG gate (src/, include/)"
if grep -rnE '#include <random>|std::[a-z_]*_distribution|generate_canonical|mt19937' \
    src include | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "FAIL: <random> engine/distribution use in src/ or include/ (see above)"
  exit 1
fi
echo "    no <random> engines or distributions in library code"

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure"
  cmake --preset "$preset" >/dev/null
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==> [$preset] test"
  if [[ "$preset" == tsan ]]; then
    # TSan is ~10x slower; cover the code that actually runs threads —
    # the parallel experiment runner, the simulator's context binding and
    # the concurrent-logging tests — plus the pooled call-state lifecycle
    # tests (SlotPool/ProxyCallPool), whose handle-staleness races are the
    # invariant the request-path overhaul leans on, and the chaos crash /
    # injector tests, which recycle those handles mid-flight.
    # ...and the obs recorder's multi-thread shard merge.
    # ...plus the batched dispatch suites (the queue drain and the pinned
    # end-to-end trace goldens) and the pick-kernel suite: the drain shares
    # the EventQueue slot pool and the picker caches the overhaul leans on,
    # so their invariants get the same TSan coverage.
    # ...plus the shard engine and mailbox suites: the conservative-barrier
    # handshake and the staging/lane handoff are the only cross-thread
    # channels in the sharded simulator, so they run under TSan in full
    # (including the 10k-backend mega scenario on 4 shards).
    # ...plus the control-plane suites (TsdbWindow, ColumnBlock, and the
    # controller's steady-state scrape-plan reuse): single-threaded by
    # design, but the TSDB rings and query scratch and the scrape-plan
    # cache are mutable state every sharded runner touches per tick, so
    # they get TSan coverage.
    # ...plus the proxy cost-model suites (ProxyCost, ConnectionPool): the
    # pool/CPU-stage state rides inside every proxy the parallel experiment
    # runner and the sharded mega scenario instantiate per worker.
    ctest --preset "$preset" \
      -R 'Experiment|ResultGrid|CellSeed|Simulator|LogContext|SlotPool|ProxyCallPool|Chaos|Crash|ObsRecorder|DispatchBatch|BatchedTraceIdentity|PickKernels|Shard|Mailbox|Mega|TsdbWindow|ColumnBlock|ReusesScrapePlan|ProxyCost|ConnectionPool'
  else
    ctest --preset "$preset"
  fi
done

# Jobs-invariance smoke: a parallel sweep must produce byte-identical
# stdout and JSON to the serial one (the harness's core guarantee).
if [[ " ${presets[*]} " == *" default "* ]]; then
  smoke_dir=$(mktemp -d)
  trap 'rm -rf "$smoke_dir"' EXIT
  # same A B: runs A and B wrote byte-identical stdout and JSON.
  same() {
    diff "$smoke_dir/$1.out" "$smoke_dir/$2.out"
    diff "$smoke_dir/$1.json" "$smoke_dir/$2.json"
  }

  # fig10 is the headline sweep; fig11 arms a FaultPlan per cell, so chaos
  # timelines are covered; fig09 runs the DSB call graph, the only
  # multi-hop request path. fig10's --jobs 1 run ("fig10_scenarios.j1") is
  # the golden the later smokes diff against.
  for bench in fig10_scenarios fig11_failure_latency fig09_deathstarbench; do
    echo "==> [default] jobs-invariance smoke ($bench)"
    for jobs in 1 2; do
      ./build/bench/"$bench" --fast --reps 1 --jobs "$jobs" \
          --json "$smoke_dir/$bench.j$jobs.json" > "$smoke_dir/$bench.j$jobs.out"
    done
    same "$bench.j1" "$bench.j2"
    echo "    byte-identical at --jobs 1 and --jobs 2"
  done

  # --profile jobs-invariance: the JSON `profile` block is merged in grid
  # order from deterministic counts, so a profiled run must stay
  # byte-identical across --jobs too (wall-clock goes to stderr only).
  echo "==> [default] --profile jobs-invariance smoke (fig10_scenarios)"
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 1 --profile \
      --json "$smoke_dir/p1.json" > "$smoke_dir/p1.out" 2>/dev/null
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 2 --profile \
      --json "$smoke_dir/p2.json" > "$smoke_dir/p2.out" 2>/dev/null
  same p1 p2
  grep -q '"profile"' "$smoke_dir/p1.json" \
    || { echo "FAIL: --profile produced no profile block"; exit 1; }
  # The control-plane scopes (columnar scrape plan, fused controller
  # gather) must appear in the profile block — and, being inside the
  # byte-identical p1/p2 diff above, be jobs-invariant themselves.
  for scope in 'scraper.plan' 'controller.gather'; do
    grep -q "\"$scope\"" "$smoke_dir/p1.json" \
      || { echo "FAIL: profile block lacks control-plane scope $scope"; exit 1; }
  done
  echo "    profiled output byte-identical at --jobs 1 and --jobs 2"

  # Zero-cost proxy identity: an explicit --proxy-cost=0 arms the whole
  # ProxyCostConfig plumbing (runner -> mesh -> proxy) with zero-valued
  # knobs, which must not move a single byte of stdout or JSON relative
  # to the untouched default run (DESIGN.md §16's zero-cost guarantee).
  echo "==> [default] --proxy-cost=0 identity smoke (fig10_scenarios)"
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 1 --proxy-cost=0 \
      --json "$smoke_dir/pc0.json" > "$smoke_dir/pc0.out"
  same fig10_scenarios.j1 pc0
  echo "    byte-identical with --proxy-cost=0"

  # Ledger digest gate: one Release rep of every performance-ledger
  # workload (bench/ledger) at the default seed 42 must reproduce the pinned
  # result digests, so a change that moves any simulated result on the
  # benchmark workloads fails here instead of in a hand check. A deliberate
  # golden rebase (ROADMAP item 3) is the one change that re-pins them.
  echo "==> [ledger] seed-42 ledger digest gate (all workloads)"
  cmake -S bench/ledger -B build-ledger -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-ledger -j "$(nproc)" --target l3_ledger
  ./build-ledger/l3_ledger --workload=all --reps=1 --seconds=1 --trace=0 \
      --json="$smoke_dir/ledger.json" > /dev/null 2> "$smoke_dir/ledger.err" \
    || { cat "$smoke_dir/ledger.err"; echo "FAIL: l3_ledger exited non-zero"
         exit 1; }
  python3 - "$smoke_dir/ledger.json" <<'PY'
import json
import sys

pinned = {
    "fig10": "c674e04166e9a63c",
    "hotel": "acca8b3481600d6a",
    "mega": "3778ea40350c8781",
    "mega-sharded": "3778ea40350c8781",
    "chaos-costed": "5574d5df323a8fea",
}
with open(sys.argv[1]) as f:
    workloads = json.load(f)["workloads"]
bad = [f"{name}: {workloads.get(name, {}).get('digest')} != pinned {want}"
       for name, want in pinned.items()
       if workloads.get(name, {}).get("digest") != want]
if bad:
    print("FAIL: ledger digests moved:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("    all five ledger digests match their pinned values")
PY

  # L3_OBS=OFF zero-cost check: compiling the instrumentation out must not
  # change a single byte of bench stdout or report JSON (the macros carry no
  # behavior). Reuses the unprofiled fig10 golden from the default build.
  echo "==> [obsoff] L3_OBS=OFF byte-identical golden (fig10_scenarios)"
  cmake --preset obsoff >/dev/null
  cmake --build --preset obsoff -j "$(nproc)" --target fig10_scenarios
  ./build-obsoff/bench/fig10_scenarios --fast --reps 1 --jobs 1 \
      --json "$smoke_dir/off1.json" > "$smoke_dir/off1.out"
  same fig10_scenarios.j1 off1
  # --profile still parses with obs compiled out; the report just carries
  # an all-zero-count profile block (recorder runs, macros are no-ops).
  ./build-obsoff/bench/fig10_scenarios --fast --reps 1 --jobs 2 --profile \
      --json "$smoke_dir/off2.json" > "$smoke_dir/off2.out" 2>/dev/null
  diff "$smoke_dir/fig10_scenarios.j1.out" "$smoke_dir/off2.out"
  echo "    L3_OBS=OFF output byte-identical to the instrumented build"
fi

# Flight-recorder overhead gate: over 61 interleaved (plain, recorded)
# pairs of a full scenario, the median per-pair slowdown with the recorder
# bound must stay within 5%; every run must produce identical simulation
# results, and >= 6 instrumented subsystems must be covered (exits non-zero
# on any violation; see bench/trace_overhead.cpp --obs-gate).
echo "==> [release-bench] obs recorder overhead gate"
cmake --preset release-bench >/dev/null
cmake --build --preset release-bench -j "$(nproc)" --target trace_overhead
./build-release/bench/trace_overhead --obs-gate 5

gates="portable-RNG gate + ctest (${presets[*]})"
if [[ " ${presets[*]} " == *" default "* ]]; then
  gates+=" + jobs/profile/proxy-cost smoke diffs + ledger digests"
  gates+=" + L3_OBS=OFF golden"
fi
echo "All checks passed: $gates + obs overhead gate"
