#!/usr/bin/env python3
"""Compare two saved outputs of the benchmark, metric by metric.

    python3 perfbench/compare.py OLD.txt NEW.txt

Each file is the standard output of one benchmark run (the table, the
`provenance {...}` line and the result line). For every metric both results
carry, prints old, new and new/old. An end-to-end metric that got worse by
more than its bound in BENCHMARK.json is flagged, and the exit code is 1.
When the two results come from hosts with different `cpus`, or differ in
workload, mode or backend, the difference is reported and nothing is
flagged: such results are not comparable.
"""

import json
import os
import sys


def load(path):
    provenance, result = None, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("provenance "):
                provenance = json.loads(line[len("provenance "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if provenance is None or result is None:
        sys.exit(f"{path}: no provenance or result line")
    return provenance, result


def bounds():
    """End-to-end metric -> (bound, better) from BENCHMARK.json, if present."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: (m["bound"], m["better"]) for m in spec.get("end_to_end", [])}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (old_p, old_r), (new_p, new_r) = load(sys.argv[1]), load(sys.argv[2])
    differences = [
        f"{key}: {old_p.get(key)} -> {new_p.get(key)}"
        for key in ("workload", "trace", "cpus", "backend", "workers")
        if old_p.get(key) != new_p.get(key)
    ]
    comparable = not differences
    for d in differences:
        print(f"not comparable, {d}")
    print(f"commit {old_p.get('commit')} -> {new_p.get('commit')}")
    limits = bounds()
    regressed = []
    for name, old in old_r["metrics"].items():
        new = new_r["metrics"].get(name)
        if new is None:
            print(f"{name:30s} missing in new result")
            continue
        a, b = old["value"], new["value"]
        ratio = b / a if a else float("nan")
        note = ""
        if name in limits and a:
            bound, better = limits[name]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            if worse > bound:
                note = f"  worse by {worse:.1%} > bound {bound:.0%}"
                regressed.append(name)
        print(f"{name:30s} {a:14.6g} {b:14.6g} {ratio:8.4f} {old['unit']}{note}")
    for label, r in (("old", old_r), ("new", new_r)):
        print(f"{label}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    if regressed and comparable:
        sys.exit(1)


if __name__ == "__main__":
    main()
