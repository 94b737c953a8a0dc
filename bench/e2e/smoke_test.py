#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (registered with ctest).

    python3 smoke_test.py path/to/sdlo_bench path/to/BENCHMARK.json

Runs every workload of BENCHMARK.json at --scale smoke, once timed and once
traced, and checks that:
  - each run exits 0 and its last stdout line is the result object with
    correct == true and no failed operation;
  - the timed run prints every end-to-end metric, the traced run every
    per-layer metric, each with the unit BENCHMARK.json gives it;
  - each trace file parses as JSON and holds spans from every layer.
"""
import json
import os
import subprocess
import sys
import tempfile
import time

LAYERS = {"ir", "trace", "cachesim", "parallel", "model", "analysis",
          "serve", "cli"}


def run(bench, workload, extra, tmp):
    cmd = [bench, "--workload", workload, "--seed", "1", "--scale", "smoke"]
    proc = subprocess.run(cmd + extra, capture_output=True, text=True,
                          env=dict(os.environ, TMPDIR=tmp), timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check_metrics(workload, result, specs, stderr):
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload}: correct={result['correct']} "
                             f"failed={result['failed']}\n{stderr}")
    if result["attempted"] < 1:
        raise AssertionError(f"{workload}: nothing attempted")
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got.get("unit") != spec["unit"]:
            raise AssertionError(f"{workload}: metric {spec['name']} "
                                 f"missing or not in {spec['unit']}: {got}")


def main():
    bench, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        spec = json.load(f)
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        for w in spec["workloads"]:
            name = w["name"]
            result, err = run(bench, name, [], tmp)
            check_metrics(name, result, spec["end_to_end"], err)
            trace_path = os.path.join(tmp, name + ".trace.json")
            result, err = run(bench, name, ["--trace-events", trace_path],
                              tmp)
            check_metrics(name, result, spec["per_layer"], err)
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            seen = {e["cat"] for e in events if e.get("ph") == "X"}
            if not LAYERS <= seen:
                raise AssertionError(f"{name}: trace lacks layers "
                                     f"{sorted(LAYERS - seen)}")
            print(f"{name}: ok ({len(events)} spans)")
    print(f"smoke: all workloads ok in {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
