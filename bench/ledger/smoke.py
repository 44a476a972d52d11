#!/usr/bin/env python3
"""LedgerSmoke: a tiny l3_ledger run checked against BENCHMARK.json.

usage: smoke.py L3_LEDGER BENCHMARK_JSON

Runs `l3_ledger --smoke`, then checks that its JSON parses, that every
workload reports every end-to-end and per-layer metric BENCHMARK.json names,
with the same unit, that no run failed (digest gates included), and that
malformed arguments exit with code 2.
"""

import json
import subprocess
import sys


def main():
    ledger, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)

    out = "ledger_smoke.json"
    subprocess.run([ledger, "--smoke", f"--json={out}"], check=True,
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        result = json.load(f)

    errors = []
    if result["failed_runs"] != 0:
        errors.append(f"failed runs: {result['failures']}")
    for workload in spec["workloads"]:
        got = result["workloads"].get(workload["name"])
        if got is None:
            errors.append(f"{workload['name']}: missing")
            continue
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                entry = got[section].get(metric["name"])
                if entry is None:
                    errors.append(f"{workload['name']}: {metric['name']} missing")
                elif entry["unit"] != metric["unit"]:
                    errors.append(f"{workload['name']}: {metric['name']} unit "
                                  f"{entry['unit']} != {metric['unit']}")

    for bad in (["--workload=nope"], ["--reps=0"], ["--seed=12x"], ["--trace=2"]):
        code = subprocess.run([ledger, *bad], capture_output=True).returncode
        if code != 2:
            errors.append(f"{' '.join(bad)} exited {code}, expected 2")

    for e in errors:
        print("LedgerSmoke:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
