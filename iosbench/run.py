#!/usr/bin/env python3
"""Builds the IOS benchmark from source and runs one workload.

Run from the repository root:

    python3 iosbench/run.py --workload optimize_cold --seed 1 --seconds 20 --trace 0

The build lives in .bench_build/. Human-readable lines come first; the last
line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {name: {"value": ..., "unit": ...}}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A per-layer metric of a layer the workload
never calls reads 0. The Chrome trace of a traced run is written to
.bench_build/traces/. The exit status is nonzero when the build fails, a
correctness gate fails, or the run does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD = os.path.join(BUILD_ROOT, "iosbench")
MAX_JOBS = 4


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(MAX_JOBS, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "iosbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "iosbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("unknown workload " + args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("iosbench: build failed: %s" % e, file=sys.stderr)
        return 1

    scratch = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", scratch, "--trace-file",
           os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # Set-up and the traced run's extra passes take well under a minute
    # beyond the measured time on a 4-core host.
    timeout_s = 3 * args.seconds + 80
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("iosbench: run exceeded %d s" % timeout_s, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("iosbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    names = {m["name"] for m in declared}
    unknown = sorted(set(raw["metrics"]) - names)
    missing = sorted(names - set(raw["metrics"]))
    if unknown or (missing and not args.trace):
        print("iosbench: metrics not in BENCHMARK.json: %s; missing: %s"
              % (unknown, missing), file=sys.stderr)
        return 1
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"].get(m["name"], 0),
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
