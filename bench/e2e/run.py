#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload and seed.

    python3 bench/e2e/run.py --workload W --seed N [--seconds T] [--trace 0|1]

Run it from the repository root. The first run configures and builds the
bench/e2e project (the sdlo library, the `sdlo` binary and sdlo_bench) into
$CARGO_TARGET_DIR/e2e, by default .bench_build/e2e; later runs rebuild only
what changed. Build output goes to stderr. stdout is sdlo_bench's own, so
its last line is the result object. --trace 1 runs the traced replay (the
per-layer metrics) and keeps its Chrome trace under <build>/traces/; every
run's full record goes to <build>/results/. Scratch files go to
<build>/tmp. Exits non-zero, without a result, when the sdlo sources are
missing or the build fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    """Configures (once) and builds sdlo_bench; returns its path."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "sdlo_bench"],
                   stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "sdlo_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: no sdlo sources at {ROOT} (missing {needed})",
                  file=sys.stderr)
            return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
    try:
        bench = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("tmp", "results", "traces"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--out", os.path.join(build_dir, "results", tag + ".json")]
    if args.trace:
        cmd += ["--trace-events",
                os.path.join(build_dir, "traces", tag + ".json")]
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    sys.stdout.flush()
    # sdlo_bench and every sdlo process it starts share a process group, so
    # a termination request reaches the daemon and the CLI jobs as well.
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    signal.signal(signal.SIGTERM,
                  lambda *_: os.killpg(child.pid, signal.SIGTERM))
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
