#!/usr/bin/env python3
"""Self-test of the wallbench benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 wallbench/selftest.py

For each workload it makes two untraced runs and one traced run and checks:
every metric BENCHMARK.json names is printed with its unit, the
workload-specific metrics of the human report are printed with theirs,
error_ratio is 0, the per-layer table sums to the item total, and the
modeled fingerprint is the same in all three runs. Exits 1 on any failure.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Report rows each workload prints besides the JSON metrics (name -> unit).
REPORT_ROWS = {
    "cve-stream": {"item_ms_p90": "ms", "error_ratio": "ratio",
                   "downtime_us_p50": "us", "downtime_us_p99": "us"},
    "bulk-patch": {"item_ms_p90": "ms", "error_ratio": "ratio",
                   "downtime_us_p50": "us"},
    "adversary-campaign": {"error_ratio": "ratio"},
    "fleet-rollout": {"error_ratio": "ratio", "downtime_us_p50": "us",
                      "downtime_us_p99": "us", "makespan_ms": "ms"},
}
TRACED_ROWS = {
    "adversary-campaign": ["fuzz.execute_ms", "fuzz.prevented",
                           "fuzz.detected", "fuzz.skipped"],
    "fleet-rollout": ["fleetscale.run_ms", "fleetscale.ns_per_target",
                      "fleetscale.sampled_runs", "fleetscale.relay_hit_ratio"],
}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=600).stdout
    lines = out.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def report_value(lines, name):
    """(value, unit) of a report row '  <name>  <value> <unit> ...'."""
    for line in lines:
        m = re.match(rf"\s+{re.escape(name)}\s+(-?[0-9.eE+-]+)\s+(\S+)", line)
        if m:
            return float(m.group(1)), m.group(2)
    return None, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(ok, msg):
        if not ok:
            problems.append(msg)

    for w in (x["name"] for x in bench["workloads"]):
        runs = [run(w, 1, 0), run(w, 1, 0), run(w, 1, 1)]
        fingerprints = set()
        for (lines, res), trace in zip(runs, (0, 0, 1)):
            tag = f"{w} trace={trace}"
            expect(res["correct"] is True, f"{tag}: correct is not true")
            expect(res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: attempted={res['attempted']} failed={res['failed']}")
            want = layers if trace else e2e
            expect(set(res["metrics"]) == set(want),
                   f"{tag}: JSON metrics {sorted(res['metrics'])} != {sorted(want)}")
            for name, unit in want.items():
                got = res["metrics"].get(name, {})
                expect(got.get("unit") == unit, f"{tag}: {name} unit {got.get('unit')} != {unit}")
                v = got.get("value")
                expect(isinstance(v, (int, float)) and math.isfinite(v),
                       f"{tag}: {name} value {v!r} is not a finite number")
            for name, unit in REPORT_ROWS[w].items():
                if trace and name == "item_ms_p90":
                    continue  # the traced run keeps only half its items untraced
                v, u = report_value(lines, name)
                expect(v is not None and u == unit, f"{tag}: report row {name} [{unit}] missing")
            v, _ = report_value(lines, "error_ratio")
            expect(v == 0, f"{tag}: error_ratio {v} != 0")
            fp = [l for l in lines if l.startswith("modeled fingerprint:")]
            expect(len(fp) == 1, f"{tag}: no fingerprint line")
            fingerprints.update(fp)
            if trace:
                for name in TRACED_ROWS.get(w, []):
                    expect(report_value(lines, name)[0] is not None,
                           f"{tag}: traced row {name} missing")
                total = [l for l in lines if l.strip().startswith("item total")]
                m = re.search(r"item total\s+([0-9.]+)\s+\(layers sum ([0-9.]+)\)",
                              total[0] if total else "")
                expect(m is not None and math.isclose(float(m.group(1)), float(m.group(2)),
                                                      rel_tol=1e-9, abs_tol=1e-6),
                       f"{tag}: per-layer rows do not sum to the item total")
                expect(any(l.startswith("tracing overhead:") for l in lines),
                       f"{tag}: tracing overhead not reported")
        expect(len(fingerprints) == 1, f"{w}: fingerprints differ: {sorted(fingerprints)}")
        print(f"{w}: {'ok' if not problems else 'FAILED'}", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selftest ok" if not problems else f"selftest FAILED ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
