#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, on a seed that was not used while the benchmark was developed.

Usage, from the root of a checkout of the repository:

    python3 perfbench/smoke.py

Each run must exit 0 and end its standard output with one JSON object that
has exactly the keys correct, attempted, failed and metrics; `correct` must
be true (the behaviour gate held: every repetition, traced or not, produced
the same simulated fingerprint, and crash_restart read back every byte);
and the metrics must be exactly the `end_to_end` (untraced) or `per_layer`
(traced) metrics of BENCHMARK.json, with the units it names.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 90001


def check(workload: str, trace: int, spec: dict) -> list:
    spans = os.path.join(HERE, "out", f"smoke-spans-{workload}.tsv")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.01", "--trace", str(trace),
           "--size", "tiny", "--spans-out", spans]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return errors + [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("behaviour gate failed (correct is not true)")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"failed {result.get('failed')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result.get("metrics", {})
    if set(got) != set(units):
        errors.append(f"metric names differ: missing {sorted(set(units) - set(got))}, "
                      f"extra {sorted(set(got) - set(units))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != units.get(name):
            errors.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{name}: value {m['value']}")
    if trace:
        with open(spans) as f:
            if f.readline().split() != ["name", "start_ns", "end_ns", "parent", "req"]:
                errors.append("span export lacks its header")
            if sum(1 for _ in f) == 0:
                errors.append("span export is empty")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check(w["name"], trace, spec)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']:<14} trace {trace}: {status}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
