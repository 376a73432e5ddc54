#!/usr/bin/env python3
"""Layer-ladder benchmark runner.

    python3 ladder/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It builds the repository's library and
`dynamo` CLI plus the `ladder` binary (ladder/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks its
outputs, and prints:

  * a detail line: {"machine": ..., "ops": ..., "ops_failed_frac": ...,
    "info": ..., "other_metrics": ...};
  * as the last line, {"correct", "attempted", "failed", "metrics"} with
    every end-to-end metric of BENCHMARK.json (--trace 0) or every
    per-layer metric (--trace 1), each as {"value", "unit"}.

--smoke runs the workload at toy size (ladder/smoke.py checks the schema).
"""
import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LADDER_TIMEOUT_S = 170


def fail(message):
    print(f"ladder/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "ladder"


def build():
    """Configure once, then let the build tool bring everything up to date."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(log, "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"configure failed, see {log}:\n{log.read_text()[-3000:]}")
        jobs = str(min(nproc(), 4))
        cmd = ["cmake", "--build", str(bdir), "--target", "ladder", "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed, see {log}:\n{log.read_text()[-3000:]}")
    return bdir / "ladder"


def stop_group(pgid):
    """Kill whatever the ladder left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_ladder(binary, args):
    work = build_dir() / f"work-{args.workload}-{os.getpid()}"
    cmd = [str(binary), args.workload, f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--root={ROOT}", f"--work={work}", f"--nproc={nproc()}"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=LADDER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail(f"{args.workload} did not finish within {LADDER_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{args.workload} printed no result")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def last_level_cache():
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            if level >= best[0]:
                best = (level, f"L{level} {(index / 'size').read_text().strip()}")
        except (OSError, ValueError):
            continue
    return best[1]


def git_commit():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20110516)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no CMakeLists.txt / src)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    raw = run_ladder(build(), args)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in declared:
        if m["name"] in raw["metrics"]:
            metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")

    info = raw["info"]
    machine = {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "compiler": info.pop("compiler"),
        "build_type": info.pop("build_type"),
        "cxx_flags": info.pop("cxx_flags"),
        "git_commit": git_commit(),
        "last_level_cache": last_level_cache(),
        "working_set": info.pop("working_set", "n/a"),
    }
    attempted, failed = raw["attempted"], raw["failed"]
    detail = {
        "machine": machine,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": attempted,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "info": info,
        "other_metrics": {k: v for k, v in raw["metrics"].items() if k not in metrics},
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": bool(raw["correct"]) and failed == 0 and attempted >= 1,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
