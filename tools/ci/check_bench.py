#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Usage: check_bench.py --baseline BENCH_foo.json --run run.json [--tolerance 3.0]

Matches benchmarks by name and compares real_time (normalized to ns).
When a file repeats a name (--benchmark_repetitions), the median of
its iteration rows stands for it; the aggregate rows are ignored.
A benchmark regresses when run_time > tolerance * baseline_time. New or
vanished benchmarks are reported but are not regressions — baselines
were recorded on different hardware, which is also why the default
tolerance is a generous 3x: this check catches order-of-magnitude
accidents (a disabled cache, an accidental O(n^2)), not percent-level
noise. The CI job that runs this is report-only and never blocks a
merge.

Exit codes: 0 no regression, 1 regression(s), 2 bad invocation.
"""

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    """Name -> real time in ns, the median over repeated rows."""
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        unit = _UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None or "real_time" not in bench:
            continue
        runs.setdefault(bench["name"], []).append(bench["real_time"] * unit)
    return {name: statistics.median(times) for name, times in runs.items()}


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return "%.2f%s" % (ns / scale, unit)
    return "%.0fns" % ns


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--run", required=True)
    ap.add_argument("--tolerance", type=float, default=3.0)
    args = ap.parse_args()

    try:
        base = load_benchmarks(args.baseline)
        run = load_benchmarks(args.run)
    except (OSError, ValueError) as err:
        print("check_bench: cannot load input: %s" % err, file=sys.stderr)
        return 2
    if not base:
        print("check_bench: no benchmarks in baseline %s" % args.baseline,
              file=sys.stderr)
        return 2

    regressions = []
    for name in sorted(base):
        if name not in run:
            print("  MISSING  %-40s (in baseline, not in run)" % name)
            continue
        ratio = run[name] / base[name] if base[name] else float("inf")
        verdict = "REGRESSED" if ratio > args.tolerance else "ok"
        print("  %-9s %-40s %s -> %s  (%.2fx, limit %.1fx)"
              % (verdict, name, fmt_ns(base[name]), fmt_ns(run[name]),
                 ratio, args.tolerance))
        if ratio > args.tolerance:
            regressions.append(name)
    for name in sorted(set(run) - set(base)):
        print("  NEW      %-40s %s (no baseline)" % (name, fmt_ns(run[name])))

    if regressions:
        print("check_bench: %d regression(s) beyond %.1fx in %s"
              % (len(regressions), args.tolerance, args.run))
        return 1
    print("check_bench: %d benchmark(s) within %.1fx of %s"
          % (len(base), args.tolerance, args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
