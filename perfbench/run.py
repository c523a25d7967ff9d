#!/usr/bin/env python3
"""Builds the time-to-solution benchmark from source and runs one workload.

    python3 perfbench/run.py --workload maxwell_fat --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench and
its output to standard error, so the last line of standard output is the
benchmark's JSON result (README.md describes it). Exits nonzero, printing no
result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("maxwell_fat", "maxwell_tube", "service_sweep")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns the executable's path."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries inside
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"]):
        subprocess.run(cmd, stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="small meshes, few iterations (tests)")
    ap.add_argument("--spans", help="write the recorded spans to this file")
    args = ap.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    if args.spans:
        cmd += ["--spans", args.spans]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
