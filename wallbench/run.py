#!/usr/bin/env python3
"""Builds the wallbench driver from source and runs one workload per process.

Run from the root of a checkout:

    python3 wallbench/run.py --workload cve-stream --seed 1 --seconds 20 --trace 0
    python3 wallbench/run.py --workload all          # every workload, one process each

The build goes to .bench_build/wallbench (Release). The workload process
prints its report; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Spans of a traced run are written to
.bench_build/wallbench-traces/. Exits non-zero, without a result line, when
the build fails (for example when the simulator sources are missing).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
TRACES = os.path.join(ROOT, ".bench_build", "wallbench-traces")
WORKLOADS = ["cve-stream", "bulk-patch", "adversary-campaign", "fleet-rollout"]
DEFAULT_SEED = 1


def log(msg):
    print(f"[wallbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "wallbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_one(workload, seed, seconds, trace, size):
    """Runs one workload in its own process: (exit code, stdout lines, result)."""
    cmd = [os.path.join(BUILD, "wallbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACES, f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        code, lines, result = run_one(name, args.seed, args.seconds, args.trace, args.size)
        if code != 0 or result is None:
            sys.stderr.write("\n".join(lines) + "\n")
            log(f"{name}: workload process failed (exit {code})")
            return 1
        results[name] = result
        if len(names) == 1:
            sys.stdout.write("\n".join(lines) + "\n")
        else:
            sys.stdout.write("\n".join(lines[:-1]) + "\n\n")

    if len(names) > 1:
        merged = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
        print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
