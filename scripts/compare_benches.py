#!/usr/bin/env python3
"""Compares two google-benchmark JSON files (baseline vs current).

Usage: scripts/compare_benches.py BASELINE.json CURRENT.json [--threshold PCT]

Each benchmark is compared on one headline figure:
  - `rps` or `items_per_second` when it reports one (higher is better);
  - otherwise `real_time` for `*/real_time` benches (lower is better);
    their `cpu_time` is only the main thread's share, so it is never used;
  - otherwise `cpu_time` (lower is better).

Both files' `num_cpus` and `gemm_path` are printed first. When they differ
the runs come from different hosts (or GEMM paths) and no deltas are
printed. Otherwise the script prints a per-benchmark delta table plus a
summary of failed benchmarks (entries with `error_occurred`, on either
side, with their `error_message`) and of regressions beyond the threshold
(default 10%). A failed entry is never compared. Exits 0 always:
the CI bench job is a report, not a gate. Single-run micro-benchmarks on
shared runners are too noisy to block merges on, but the table in the job
log makes drift visible.
"""

import argparse
import json
import sys

HOST_KEYS = ("num_cpus", "gemm_path")


def headline(bench):
    """(figure name, value, higher_is_better) for one benchmark entry."""
    for key in ("rps", "items_per_second"):
        if key in bench:
            return key, bench[key], True
    if bench["name"].endswith("/real_time"):
        return "real_time", bench["real_time"], False
    return "cpu_time", bench["cpu_time"], False


def load(path):
    """(host keys, {name: headline}, {name: error message}) of one file."""
    with open(path) as f:
        data = json.load(f)
    benches, failures = {}, {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if b.get("error_occurred"):
            failures[b["name"]] = b.get("error_message", "")
        else:
            benches[b["name"]] = headline(b)
    context = data.get("context", {})
    return {k: context.get(k) for k in HOST_KEYS}, benches, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="percent worsening considered a regression")
    args = parser.parse_args()

    base_host, base, base_failed = load(args.baseline)
    curr_host, curr, curr_failed = load(args.current)
    for key in HOST_KEYS:
        print(f"{key}: baseline {base_host[key]}, current {curr_host[key]}")
    if base_host != curr_host:
        print("different hosts, not compared")
        return 0
    print()

    names = sorted(set(base) | set(curr) | set(base_failed) |
                   set(curr_failed))
    width = max((len(n) for n in names), default=9)
    print(f"{'benchmark':<{width}}  {'figure':<16}  {'baseline':>14}  "
          f"{'current':>14}  {'change':>8}")
    print("-" * (width + 62))
    failures = []
    regressions = []
    for name in names:
        sides = [side for side, failed in (("baseline", base_failed),
                                           ("current", curr_failed))
                 if name in failed]
        if sides:
            print(f"{name:<{width}}  FAILED in {' and '.join(sides)}")
            failures += [(side, name, (base_failed if side == "baseline"
                                       else curr_failed)[name])
                         for side in sides]
            continue
        b, c = base.get(name), curr.get(name)
        if b is None or c is None:
            key, value, _ = b or c
            cols = (f"{'(new)':>14}  {value:>14.1f}" if b is None
                    else f"{value:>14.1f}  {'(gone)':>14}")
            print(f"{name:<{width}}  {key:<16}  {cols}")
            continue
        key, bv, higher_better = b
        if c[0] != key:
            print(f"{name:<{width}}  {key:<16}  (figure is now {c[0]})")
            continue
        cv = c[1]
        change = (cv - bv) / bv * 100.0 if bv else 0.0
        worse = -change if higher_better else change
        marker = ""
        if worse > args.threshold:
            marker = "  <-- regression"
            regressions.append((name, key, change))
        print(f"{name:<{width}}  {key:<16}  {bv:>14.1f}  {cv:>14.1f}  "
              f"{change:>+7.1f}%{marker}")

    print()
    if failures:
        print(f"{len(failures)} benchmark run(s) failed and were not "
              f"compared:")
        for side, name, message in failures:
            print(f"  {side:<8} {name}: {message}")
    if regressions:
        print(f"{len(regressions)} benchmark(s) worse than baseline by more "
              f"than {args.threshold:.0f}% (non-blocking):")
        for name, key, change in regressions:
            print(f"  {name}: {key} {change:+.1f}%")
    else:
        scope = " among the compared benchmarks" if failures else ""
        print(f"No regressions beyond {args.threshold:.0f}%{scope}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
