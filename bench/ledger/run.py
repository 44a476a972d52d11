#!/usr/bin/env python3
"""Builds l3_ledger from this checkout and measures one workload.

Run from the repository root:

    python3 bench/ledger/run.py --workload fig10 --seed 1 --seconds 12 --trace 0

The ledger is configured and built (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build. The
ledger then runs timed reps of the workload, each in a fresh child process,
until --seconds have passed, followed by its set-up reps and, with --trace 1,
one traced run. Its own output goes to stderr. The last line of stdout is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where the metrics are the medians of the `end_to_end` metrics named in
BENCHMARK.json (--trace 0), or its `per_layer` metrics (--trace 1). Times
are scaled to a reference host speed (bench/ledger/README.md says how).
`attempted` and `failed` count ledger child runs; a run fails when it
crashes, exits non-zero or produces a result digest that differs from the
workload's other runs (or mega's from mega-sharded's).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds l3_ledger; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "l3_ledger", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "l3_ledger")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload}")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "ledger")
    try:
        ledger = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"run.py: cannot build l3_ledger: {err}")
        return 1

    out_path = os.path.abspath(os.path.join(build_dir, f"run-{args.workload}.json"))
    if os.path.exists(out_path):
        os.remove(out_path)
    # Three timed reps at least; --seconds then sets how many more fit.
    cmd = [ledger, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", "--reps=3",
           f"--json={out_path}"]
    proc = subprocess.run(cmd, stdout=sys.stderr)
    if not os.path.exists(out_path):
        log(f"run.py: l3_ledger exited {proc.returncode} without a result")
        return 1
    with open(out_path) as f:
        result = json.load(f)

    workload = result["workloads"][args.workload]
    section, field = ("per_layer", "value") if args.trace else ("end_to_end", "median")
    metrics = {}
    missing = []
    for metric in spec[section]:
        entry = workload[section].get(metric["name"])
        if entry is None or entry["unit"] != metric["unit"]:
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": entry[field], "unit": entry["unit"]}
    if missing:
        log("run.py: metrics missing from the ledger result: " + ", ".join(missing))
    correct = proc.returncode == 0 and result["failed_runs"] == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted_runs"]),
        "failed": int(result["failed_runs"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
