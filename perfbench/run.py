#!/usr/bin/env python3
"""Runs the zen end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt compiles zen from ../src) into the
directory named by CARGO_TARGET_DIR, or .bench_build when unset; later
runs rebuild only what changed. The build log goes to stderr.

One workload: prints zenbench's report, whose last line is the JSON result
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. --workload all runs every
workload in turn and prints each report. The exit status is non-zero when
the build fails or any output check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fabric_forward", "reactive_churn", "control_churn"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds zenbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: zen sources not found at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "zenbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("run.py: build timed out: %s" % " ".join(cmd))
        if proc.returncode != 0:
            sys.exit("run.py: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "zenbench")


def run_one(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        sys.exit("run.py: --seconds must be at least 1")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code, out = run_one(binary, workload, args.seed, args.seconds, args.trace)
        if args.workload == "all":
            print("== %s ==" % workload)
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0:
            print("run.py: %s exited with status %d" % (workload, code),
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
