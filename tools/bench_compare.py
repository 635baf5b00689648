#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json artifacts.

Usage:
    bench_compare.py --baseline-dir DIR --current-dir DIR \
        [--threshold 0.25] [--gate NAME ...]

For every gated benchmark name, find its ns_per_op in both sets and fail if
the current number regressed by more than the threshold (default +25%).
Improvements and benchmarks absent from the gate list are reported but never
fail the run. A gated name missing from the baseline only (a benchmark newer
than the base) is skipped with a warning; missing from the current run fails. Each directory is searched recursively; when it holds several
runs of a benchmark (rounds of tools/bench_ab.sh), the fastest is used.

CI compares like with like: tools/bench_ab.sh runs the merge-base and HEAD
builds interleaved on the same runner, and this script gates the ratio.
bench/baselines/ keeps BENCH_*.json from an earlier, faster dev box as
history; comparing against it measures the machine, not the code.

Exit codes: 0 ok, 1 regression, 2 usage/missing-data error.
"""

import argparse
import json
import pathlib
import sys

DEFAULT_GATES = [
    "BM_SimulatorPacketRate",
    "BM_ParallelPacketRate/threads:1",
    "BM_ProactiveRecompute/8",
    "BM_ReactiveFlowSetupRate",
    "BM_SouthboundEncodeThroughput/64",
]


def load_benchmarks(path):
    """name -> ns_per_op for one BENCH_*.json artifact."""
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b["ns_per_op"] for b in data.get("benchmarks", [])}


def collect(dirpath):
    """name -> (fastest ns_per_op, source file) across a dir's artifacts."""
    table = {}
    for path in sorted(pathlib.Path(dirpath).rglob("BENCH_*.json")):
        try:
            for name, ns in load_benchmarks(path).items():
                if name not in table or ns < table[name][0]:
                    table[name] = (ns, path.name)
        except (json.JSONDecodeError, KeyError) as err:
            print(f"error: unreadable artifact {path}: {err}", file=sys.stderr)
            sys.exit(2)
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("--current-dir", required=True)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed fractional ns/op increase (default 0.25)")
    ap.add_argument("--gate", action="append", default=None,
                    help="benchmark name to gate on (repeatable); "
                         "default: the tier-1 trio")
    args = ap.parse_args()
    gates = args.gate if args.gate else DEFAULT_GATES

    baseline = collect(args.baseline_dir)
    current = collect(args.current_dir)
    if not baseline:
        print(f"error: no BENCH_*.json in {args.baseline_dir}", file=sys.stderr)
        sys.exit(2)
    if not current:
        print(f"error: no BENCH_*.json in {args.current_dir}", file=sys.stderr)
        sys.exit(2)

    failures = []
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in gates:
        if name not in current:
            print(f"error: gated benchmark {name!r} missing from current run "
                  f"(did the bench binary fail?)", file=sys.stderr)
            sys.exit(2)
        if name not in baseline:
            # A benchmark added with its gate, or newer than the base.
            print(f"warning: gated benchmark {name!r} missing from baselines; "
                  f"not gated", file=sys.stderr)
            continue
        base_ns, _ = baseline[name]
        cur_ns, _ = current[name]
        delta = (cur_ns - base_ns) / base_ns if base_ns > 0 else 0.0
        verdict = "FAIL" if delta > args.threshold else "ok"
        print(f"{name:<40} {base_ns:>10.0f}ns {cur_ns:>10.0f}ns "
              f"{delta:>+7.1%} {verdict}")
        if delta > args.threshold:
            failures.append((name, base_ns, cur_ns, delta))

    # Informational: non-gated benchmarks present in both sets.
    shared = sorted(set(baseline) & set(current) - set(gates))
    for name in shared:
        base_ns, _ = baseline[name]
        cur_ns, _ = current[name]
        delta = (cur_ns - base_ns) / base_ns if base_ns > 0 else 0.0
        print(f"{name:<40} {base_ns:>10.0f}ns {cur_ns:>10.0f}ns "
              f"{delta:>+7.1%} (info)")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"+{args.threshold:.0%}:", file=sys.stderr)
        for name, base_ns, cur_ns, delta in failures:
            print(f"  {name}: {base_ns:.0f} -> {cur_ns:.0f} ns/op "
                  f"({delta:+.1%})", file=sys.stderr)
        sys.exit(1)
    print("\nbench gate: all gated benchmarks within threshold")


if __name__ == "__main__":
    main()
