#!/usr/bin/env python3
"""Build and run the simulator benchmark (see README.md beside this file).

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --self-check

Builds the simbench program and the asap library from source with CMake
into $CARGO_TARGET_DIR/simbench (default .bench_build/simbench under the
repository root), then runs it once. Its last stdout line is the
result JSON, relayed as this script's last line. When the build or the run
fails, the script exits non-zero and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "simbench")


def build(bdir):
    """Configure once, then build incrementally; False on any failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    # Written by the generate step, so a failed configure is retried.
    if not os.path.exists(os.path.join(bdir, "cmake_install.cmake")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "--target", "simbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"simbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"simbench: {' '.join(step)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1

    scratch = os.path.join(bdir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(bdir, "simbench"), "--scratch", scratch]
    if args.self_check:
        cmd.append("--self-check")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(bdir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              cwd=scratch, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"simbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    if args.self_check:
        print("\n".join(lines))
        return done.returncode
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if done.returncode != 0 or not well_formed:
        sys.stderr.write(done.stdout)
        print(f"simbench: program exited {done.returncode} without a result",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
