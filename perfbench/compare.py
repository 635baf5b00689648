#!/usr/bin/env python3
"""Prints per-layer deltas between two benchmark result files.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are saved stdout of `perfbench/run.py` for one workload (the
same workload, seed and mode in both; --trace 1 for per-layer metrics,
--trace 0 for end-to-end ones). For every metric in both files it prints
both values and the change, marks the change better/worse by the metric's
direction, names the end-to-end metric and workload the layer metric should
move (from layer_map.json), and prints each ratio with its base as the
zenbench reported it. The fingerprints of the two runs are compared too: a
speed-only change must leave them equal.
"""
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.eE+-]+)\s+(\S+)\s*(.*)$")


def load(path):
    """Returns (metrics, notes, fingerprints, workload) of one saved run."""
    with open(path) as f:
        lines = f.read().splitlines()
    result = None
    for line in reversed(lines):
        if line.startswith("{"):
            result = json.loads(line)
            break
    if result is None:
        sys.exit("compare.py: no result line in %s" % path)
    notes = {}
    fingerprints = []
    workload = None
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            notes[m.group(1)] = m.group(4)
        if line.startswith("fingerprint "):
            fingerprints.append(line.split()[-1])
            workload = line.split()[1]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, notes, fingerprints, workload


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)["layers"]
    bench = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            for m in json.load(f)["end_to_end"]:
                layer_map[m["name"]] = {"better": m["better"]}
    base, base_notes, base_fp, workload = load(sys.argv[1])
    new, new_notes, new_fp, new_workload = load(sys.argv[2])
    if workload != new_workload:
        sys.exit("compare.py: files are for %s and %s" % (workload, new_workload))

    print("workload %s" % workload)
    print("fingerprints: %s" % ("equal" if base_fp == new_fp else
                                "DIFFER %s vs %s" % (base_fp, new_fp)))
    print("%-34s %14s %14s %9s  %-7s %s" %
          ("metric", "base", "new", "change", "", "should move"))
    for name in sorted(set(base) & set(new)):
        b, n = base[name], new[name]
        change = "%+8.1f%%" % (100.0 * (n - b) / b) if b else "     n/a"
        info = layer_map.get(name, {})
        verdict = ""
        if b != n and "better" in info:
            up = n > b
            verdict = "better" if up == (info["better"] == "higher") else "worse"
        moves = ""
        if "moves" in info:
            moves = "%s on %s" % (info["moves"], ", ".join(info["on"]))
        print("%-34s %14.6g %14.6g %9s  %-7s %s" % (name, b, n, change, verdict, moves))
        if base_notes.get(name) or new_notes.get(name):
            print("%-34s   base: %s" % ("", base_notes.get(name, "")))
            print("%-34s   new:  %s" % ("", new_notes.get(name, "")))
    for name in sorted(set(base) ^ set(new)):
        print("%-34s only in %s" % (name, "base" if name in base else "new"))


if __name__ == "__main__":
    main()
