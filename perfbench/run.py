#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload invoke|files|shuffle --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; a traced run writes its spans as
Chrome trace-event JSON to <build dir>/traces/. The benchmark prints its
results, the last line as one JSON object, and exits non-zero when it
cannot build or run, or when an output check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def build(build_dir, target):
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
                  "--target", target])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return cmake_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["invoke", "files", "shuffle"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    cmake_dir = build(build_dir,
                      "perfbench_test" if args.self_test else "perfbench")
    if args.self_test:
        test = os.path.join(cmake_dir, "perfbench_test")
        sys.exit(subprocess.run([test]).returncode)

    command = [os.path.join(cmake_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
