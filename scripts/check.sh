#!/usr/bin/env bash
# Checks that library code uses no <random> engine or distribution and that
# README.md's bench/sim_core table matches BENCH_sim_core.json, builds
# the test suite under AddressSanitizer and UndefinedBehaviorSanitizer
# and runs ctest for each, runs the concurrency-sensitive tests (experiment
# runner, simulator, logging, obs shard merge, shard engine + mailboxes)
# under ThreadSanitizer, then the plain RelWithDebInfo build,
# jobs-invariance smoke diffs on figure benches (plain, chaos, the DSB call
# graph, and --profile), a --proxy-cost=0 zero-cost identity diff,
# shard-invariance smoke diffs (--shards=2/4 vs the serial
# run, plain and chaos), an L3_OBS=OFF byte-identical golden, a
# Release-mode bench/sim_core smoke run (writes BENCH_sim_core.json and
# re-renders the README table from it), the
# flight-recorder overhead gate, the request-path pick-throughput gate, the
# sharded-mega throughput gate, the serial-mega columnar control-plane gate
# (shards=1 req/s >= 2/3 of recorded baseline), the control_plane section
# gate, and the proxy_cost saturation gate.
# Intended as the pre-merge gate; any failure aborts immediately.
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

# README bench-table gate: README.md's bench/sim_core table is rendered
# from the committed BENCH_sim_core.json and must match it. The sim_core
# smoke below refreshes both together.
echo "==> README bench table in sync with BENCH_sim_core.json"
python3 scripts/render_bench_table.py --check
echo "    README.md table matches BENCH_sim_core.json"

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
    # handshake and the staging/inbox handoff are the only cross-thread
    # channels in the sharded simulator, so they run under TSan in full
    # (including the 10k-backend mega scenario at --shards=4).
    # ...plus the control-plane fast-path suites (WindowCursor, ColumnBlock):
    # single-threaded by design, but their cursor/plan caches are mutable
    # state the sharded runners touch per tick, so they get TSan coverage.
    # ...plus the proxy cost-model suites (ProxyCost, ConnectionPool): the
    # pool/CPU-stage state rides inside every proxy the parallel experiment
    # runner and the sharded mega scenario instantiate per worker.
    ctest --preset "$preset" \
      -R 'Experiment|ResultGrid|CellSeed|Simulator|LogContext|SlotPool|ProxyCallPool|Chaos|Crash|ObsRecorder|DispatchBatch|BatchedTraceIdentity|PickKernels|Shard|Mailbox|Mega|WindowCursor|ColumnBlock|ProxyCost|ConnectionPool'
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
  # multi-hop request path. Each bench's --jobs 1 run ("<bench>.j1") is the
  # golden the later smokes diff against.
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

  # Shard-invariance smoke: running the bench grid through the sharded
  # engine must produce byte-identical stdout and JSON to the serial run
  # at every shard count (the conservative barrier + keyed mailbox drain
  # guarantee). Reuses the --jobs 1 goldens from above.
  echo "==> [default] shard-invariance smoke (fig10_scenarios)"
  for n in 2 4; do
    ./build/bench/fig10_scenarios --fast --reps 1 --jobs 1 --shards="$n" \
        --json "$smoke_dir/s$n.json" > "$smoke_dir/s$n.out"
    same fig10_scenarios.j1 "s$n"
  done
  echo "    byte-identical at --shards=1, 2 and 4"

  # Same guarantee with fault injection armed: chaos timelines ride the
  # same keyed event order, so fig11 must be shard-count invariant too.
  echo "==> [default] chaos shard-invariance smoke (fig11_failure_latency)"
  ./build/bench/fig11_failure_latency --fast --reps 1 --jobs 1 --shards=2 \
      --json "$smoke_dir/cs2.json" > "$smoke_dir/cs2.out"
  same fig11_failure_latency.j1 cs2
  echo "    byte-identical at --shards=1 and --shards=2 under chaos"

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

# Hot-path perf smoke: build the sim_core bench in Release and refresh
# BENCH_sim_core.json so regressions in events/s or TSDB throughput show
# up in the diff, then re-render README.md's table from the fresh JSON so
# the two stay in sync. --fast keeps it to a few seconds.
echo "==> [release-bench] sim_core perf smoke"
cmake --preset release-bench >/dev/null
cmake --build --preset release-bench -j "$(nproc)" --target sim_core
cmake --build --preset release-bench -j "$(nproc)" --target trace_overhead

# Flight-recorder overhead gate: a full scenario with the recorder bound
# must finish within 5% of the unrecorded run, produce identical simulation
# results, and cover >= 6 instrumented subsystems (exits non-zero on any
# violation; see bench/trace_overhead.cpp --obs-gate).
echo "==> [release-bench] obs recorder overhead gate"
./build-release/bench/trace_overhead --obs-gate 5 --obs-gate-reps 3

./build-release/bench/sim_core --fast --out BENCH_sim_core.json
python3 scripts/render_bench_table.py

# Committed-baseline ratio gates. `ratio_gate FIELD NUM DEN` fails when
# FIELD is missing from the fresh BENCH_sim_core.json or is below NUM/DEN
# of its value in the committed one (skipped only when the committed file
# has no such field yet). The bounds are loose on purpose: each catches a
# structural regression (~10x), not scheduler noise on a shared box.
json_field() {
  awk -F': ' -v f="\"$1\"" '$0 ~ f {gsub(/,/,"",$2); print $2}'
}
ratio_gate() {
  local field=$1 num=$2 den=$3 baseline current
  baseline=$(git show HEAD:BENCH_sim_core.json 2>/dev/null \
    | json_field "$field" || true)
  current=$(json_field "$field" < BENCH_sim_core.json)
  if [[ -z "$current" ]]; then
    echo "FAIL: no $field in BENCH_sim_core.json"
    exit 1
  fi
  if [[ -z "$baseline" ]]; then
    echo "    no committed baseline for $field yet; comparison skipped"
    return
  fi
  awk -v b="$baseline" -v c="$current" -v n="$num" -v d="$den" -v f="$field" 'BEGIN {
    if (c + 0.0 < b * n / d) {
      printf "FAIL: %s %.4g < %s/%s of committed baseline %.4g\n", f, c, n, d, b
      exit 1
    }
    printf "    %s ok: %.4g (baseline %.4g, floor %s/%s)\n", f, c, b, n, d
  }'
}

# request_path: weighted picks/s within 30% of baseline (a cache-
# invalidation bug that rebuilds the picker per pick is ~10x under).
ratio_gate weighted_picks_per_sec 7 10
# Sharded mega: the 10k-backend scenario at --shards=4 keeps half its
# aggregate req/s (a barrier that spins per event is ~10x under).
ratio_gate shards4_reqs_per_sec 1 2
# Serial mega (columnar control plane) at --shards=1 keeps 2/3 of the
# baseline: losing a third of it (a cursor that stops hitting, a plan
# rebuilt per scrape) trips this well before scheduler noise can.
ratio_gate shards1_reqs_per_sec 2 3
# Control plane: the section must exist, and its two throughputs (24-region
# scrape and manage at mega scale) keep half the baseline.
grep -q '"control_plane"' BENCH_sim_core.json \
  || { echo "FAIL: no control_plane section in BENCH_sim_core.json"; exit 1; }
ratio_gate scrape_series_per_sec 1 2
ratio_gate manage_backends_per_sec 1 2

# Proxy-cost gate: BENCH_sim_core.json must carry the proxy_cost section
# (the DESIGN.md §16 cost sweep), the costed run must have actually paid
# handshakes, and proxy saturation must compress the L3 traffic-share skew
# by a clear margin: skew_compression = (zero_skew-1)/(costed_skew-1) >= 1.5.
# The committed baseline measures ~4.3x, so 1.5x trips on a cost model that
# stopped feeding the EWMA signal well before run-to-run noise can.
grep -q '"proxy_cost"' BENCH_sim_core.json \
  || { echo "FAIL: no proxy_cost section in BENCH_sim_core.json"; exit 1; }
awk -F': ' '
  /"skew_compression"/ {gsub(/,/,"",$2); compression = $2}
  /"handshakes"/ {gsub(/,/,"",$2); handshakes = $2}
  END {
    if (compression == "") {
      print "FAIL: no skew_compression in proxy_cost section"; exit 1
    }
    if (handshakes + 0 < 1) {
      print "FAIL: costed proxy run paid no handshakes"; exit 1
    }
    if (compression + 0.0 < 1.5) {
      printf "FAIL: proxy saturation compressed share skew only %.3gx (gate: 1.5x)\n", compression
      exit 1
    }
    printf "    proxy_cost ok: skew compression %.3gx, %d handshakes\n", compression, handshakes
  }' BENCH_sim_core.json

echo "All checks passed: ${presets[*]} + sim_core smoke + obs gate + pick gate + shard gate + serial-mega gate + control-plane gate + proxy-cost gate"
