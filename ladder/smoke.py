#!/usr/bin/env python3
"""Smoke test of the layer-ladder benchmark.

    python3 ladder/smoke.py

Runs every workload of BENCHMARK.json at toy size (run.py --smoke), once
untraced and once traced, and checks the result line against the
contract: exactly the keys correct/attempted/failed/metrics, a correct run
with no failed op, and exactly the declared metric names, each a finite
number with the declared unit. Exits non-zero on the first violation.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload, trace, declared):
    cmd = [sys.executable, str(ROOT / "ladder" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        return f"{where}: correct={result['correct']} failed={result['failed']}"
    names = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(names):
        return f"{where}: metric names differ: {sorted(set(result['metrics']) ^ set(names))}"
    for name, entry in result["metrics"].items():
        value = entry.get("value")
        if entry.get("unit") != names[name] or not isinstance(value, (int, float)) \
                or isinstance(value, bool) or not math.isfinite(value):
            return f"{where}: bad metric {name}: {entry}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            error = check(w["name"], trace, declared)
            print(f"{'FAIL' if error else 'ok  '} {w['name']} trace={trace}"
                  + (f": {error}" if error else ""), flush=True)
            failures += error is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
