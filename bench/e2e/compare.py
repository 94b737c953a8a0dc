#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py BASE NEW [--bench BENCHMARK.json]
    python3 bench/e2e/compare.py RUNS      # one set: spread per metric

BASE, NEW and RUNS are directories (or single files) of result records:
the JSON files sdlo_bench writes with --out (run.py keeps them in
.bench_build/e2e/results/). Other files, such as saved stdout, are
skipped, so a run is never counted twice. Untraced records give the
end-to-end metrics, traced ones the per-layer metrics.

For every workload and metric it prints each side's median and quartiles
(statistics.quantiles, n=4) and, for end-to-end metrics, a verdict:

  better     there are at least 10 run pairs, the new side wins at least 9
             in 10 of them, and the medians differ by more than the base's
             quartile spread. A pair is the k-th base run and the k-th new
             run of one seed, so give both sides the same seeds
  worse      the new median is worse than the base's by more than the
             metric's bound
  unresolved the base's quartile spread is wider than the bound, and not
             every new run beats every base run; or the new side would be
             better but there are fewer than 10 run pairs
  within     none of the above

One set alone prints each metric's spread (quartile distance over the
median) against its bound, the steadiness check a new benchmark must pass.
Per-layer metrics have no bound and get no verdict.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A gain needs at least ten parent/change pairs (choosing-metrics §8).
MIN_PAIRS = 10


def load_record(path):
    """Returns (workload, seed, traced, metrics) of a result record, or None
    for any other file."""
    try:
        with open(path) as f:
            rec = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(rec, dict) or not {"workload", "seed", "traced",
                                         "metrics"} <= rec.keys():
        return None
    metrics = {k: v["value"] for k, v in rec["metrics"].items()}
    return rec["workload"], rec["seed"], rec["traced"], metrics


def load_set(paths):
    """{(workload, traced): [(seed, metrics), ...]} in file order."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, f) for f in os.listdir(p))
        else:
            files.append(p)
    runs = {}
    for f in files:
        rec = load_record(f)
        if rec is None:
            continue
        workload, seed, traced, metrics = rec
        runs.setdefault((workload, traced), []).append((seed, metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def pairs(base, new):
    """Run pairs: within each seed, the k-th base run with the k-th new run.

    Runs of an unknown seed pair with each other in the same way."""
    by_seed = {}
    for seed, m in base:
        by_seed.setdefault(seed, []).append(m)
    taken = {}
    out = []
    for seed, m in new:
        k = taken.get(seed, 0)
        if k < len(by_seed.get(seed, [])):
            out.append((by_seed[seed][k], m))
            taken[seed] = k + 1
    return out


def verdict(metric, spec, base, new):
    b = [m[metric] for _, m in base if metric in m]
    n = [m[metric] for _, m in new if metric in m]
    if not b or not n:
        return "missing"
    sign = 1 if spec["better"] == "lower" else -1
    bmed, nmed = statistics.median(b), statistics.median(n)
    q1, _, q3 = quartiles(b)
    ps = [(pb[metric], pn[metric]) for pb, pn in pairs(base, new)
          if metric in pb and metric in pn]
    wins = sum(1 for x, y in ps if sign * (x - y) > 0)
    all_better = all(sign * (x - y) > 0 for x in b for y in n)
    if ps and wins >= 0.9 * len(ps) and abs(nmed - bmed) > (q3 - q1):
        return "better" if len(ps) >= MIN_PAIRS else "unresolved"
    if bmed and sign * (nmed - bmed) / bmed > spec["bound"]:
        return "worse"
    if spread(b) > spec["bound"] and not all_better:
        return "unresolved"
    return "within"


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="BASE NEW, or one RUNS set")
    ap.add_argument("--bench", default=os.path.join(HERE, "..", "..",
                                                    "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one set (spreads) or two sets (BASE NEW)")
    with open(args.bench) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = [m["name"] for m in bench["per_layer"]]

    sets = [load_set([s]) for s in args.sets]
    keys = sorted(set().union(*sets), key=lambda k: (k[1], k[0]))
    worse = 0
    for workload, traced in keys:
        names = layer if traced else list(e2e)
        print(f"== {workload} ({'per-layer' if traced else 'end-to-end'})")
        for name in names:
            cols = []
            for s in sets:
                vals = [m[name] for _, m in s.get((workload, traced), [])
                        if name in m]
                cols.append(fmt(vals) if vals else "-")
            line = f"  {name:32s} " + "  |  ".join(cols)
            if name in e2e and len(sets) == 1:
                vals = [m[name] for _, m in sets[0][(workload, traced)]
                        if name in m]
                sp = spread(vals) if vals else 0.0
                line += (f"  spread {sp:.3f} / bound {e2e[name]['bound']}"
                         + ("  TOO WIDE" if sp > e2e[name]["bound"] else ""))
            elif name in e2e:
                v = verdict(name, e2e[name], sets[0].get((workload, traced), []),
                            sets[1].get((workload, traced), []))
                worse += v == "worse"
                line += f"  -> {v}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
