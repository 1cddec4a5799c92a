#!/usr/bin/env python3
"""Serving-path benchmark of the FLeet reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload online-serve --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the library sources under src/ plus the benchmark) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
first use, then runs one workload. Workloads: online-serve and
device-train, which BENCHMARK.json gates, and tenant-flood, which it does
not: its run-to-run spread on a 4-core VM exceeded the bounds, but it still
reports the frames the ingest loses under saturation. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run (and
writes its spans as a Chrome trace next to the build). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Exits non-zero when the build fails or a check fails.

online-serve's arrival rate is half the highest rate the serving path
sustains; --arrivals-per-s R overrides it for the capacity sweep that
finds that rate (the result is then not the gated workload).

The benchmark's own statistics tests build alongside it:

    ctest --test-dir .bench_build/perfbench
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("online-serve", "tenant-flood", "device-train")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--arrivals-per-s", type=float,
                        help="online-serve arrival rate (capacity sweep only)")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.arrivals_per_s is not None:
        cmd += ["--arrivals-per-s", str(args.arrivals_per_s)]
    if args.trace:
        # The traced run's spans, for Perfetto or chrome://tracing.
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = result.stdout.rstrip("\n").split("\n")
    # Everything but the result goes to stderr, so the JSON object stays
    # the last line of standard output.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        parsed = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    print(lines[-1])
    if result.returncode != 0 or parsed.get("correct") is not True:
        return result.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
