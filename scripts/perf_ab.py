#!/usr/bin/env python3
"""Alternating A/B of two revisions on the end-to-end benchmark (perfbench).

Usage: scripts/perf_ab.py BASE HEAD [--pairs N] [--seed K]
           [--workloads W,W] [--trace 0|1] [--claim METRIC] [--workdir DIR]

BASE and HEAD are git revisions of this repository. Each is exported with
`git archive` into DIR/<sha> (default DIR: rafiki-perf-ab in the system
temporary directory, outside any git clone) and runs its own,
unchanged `python3 perfbench/run.py`, which builds it on the first call; a
1 s run of each side builds both before the first pair. To measure
uncommitted changes, stage them and pass `$(git stash create)` as HEAD.

For every workload (default: the scored ones in BENCHMARK.json) the script
runs N pairs, each run over perfbench's own measurement window. Both runs of pair i use seed K+i-1; odd pairs run BASE first,
even pairs HEAD first. For each workload x metric it prints:

  - the median [Q1, Q3] of each side;
  - the median change, HEAD against BASE;
  - how many pairs HEAD won (ties count for neither side);
  - a verdict against the metric's `end_to_end` bound in BENCHMARK.json:
    "within" or "WORSE" (HEAD's median worse than BASE's by more than the
    bound), or "unresolved" when either side's IQR / median exceeds the
    bound, so the metric cannot show a change of that size.

With --trace 1 it compares the `per_layer` metrics instead; those have no
bounds, so the verdict column reads "-". Each pair's line gives both
sides' failed operations and `client.lag_p99_us` from the report line (a
load generator that ran late shows up there), the host's 1-minute load
average as the run started and the share of CPU time stolen by the
hypervisor during the run (from /proc/loadavg and /proc/stat, so a pair
that straddles a slow phase of a shared host shows up), plus the --claim
metric's values. No pair is ever dropped from the figures. The exit
status is non-zero when any run printed `"correct": false` or no result
at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, workdir):
    """Exports `rev` once into workdir/<sha> and returns (sha, path)."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True, text=True,
                         check=True).stdout.strip()
    dest = os.path.join(workdir, sha[:12])
    if not os.path.isdir(dest):
        tmp = dest + ".tmp"
        subprocess.run(["rm", "-rf", tmp], check=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit("git archive %s failed" % sha)
        os.rename(tmp, dest)
    return sha, dest


def host_state():
    """(1-minute load average, steal jiffies, total jiffies) of the host, or
    None where /proc does not have them."""
    try:
        with open("/proc/loadavg") as f:
            load = float(f.read().split()[0])
        with open("/proc/stat") as f:
            cpu = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError, IndexError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is already
    # counted in user and nice.
    return load, cpu[7], sum(cpu)


def run(tree, workload, seed, trace, extra=()):
    """One perfbench run: its stamp, report and result (None if absent),
    with the host's load as it started and its steal share during it."""
    before = host_state()
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          workload, "--seed", str(seed), "--trace",
                          str(trace), *extra], cwd=tree,
                         capture_output=True, text=True)
    after = host_state()
    lines = out.stdout.strip().splitlines()
    got = {"stamp": None, "report": None, "result": None,
           "exit": out.returncode, "load": None, "steal": None}
    if before is not None and after is not None:
        got["load"] = before[0]
        total = after[2] - before[2]
        if total > 0:
            got["steal"] = (after[1] - before[1]) / total
    for line in lines:
        for key in ("stamp", "report"):
            if line.startswith(key + " "):
                got[key] = json.loads(line[len(key) + 1:])
    if lines and lines[-1].startswith("{"):
        got["result"] = json.loads(lines[-1])
    else:
        log(out.stderr[-2000:])
    return got


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def spread(values):
    """IQR / median of one side (0 when flat, inf when the median is 0)."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, head, better, bound):
    if bound is None:
        return "-"
    if spread(base) > bound or spread(head) > bound:
        return "unresolved"
    mb, mh = statistics.median(base), statistics.median(head)
    worse = (mh - mb) if better == "lower" else (mb - mh)
    if worse <= 0:
        return "within"
    return "WORSE" if mb == 0 or worse / abs(mb) > bound else "within"


def value(side, name):
    if side["result"] is None:
        return None
    metric = side["result"]["metrics"].get(name)
    return None if metric is None else metric["value"]


def lag(side):
    detail = (side["report"] or {}).get("detail", {})
    got = detail.get("client.lag_p99_us")
    return "-" if got is None else "%.0f" % got["value"]


def host(side):
    load = "-" if side["load"] is None else "%.2f" % side["load"]
    steal = "-" if side["steal"] is None else "%.1f%%" % (100 * side["steal"])
    return "load %s steal %s" % (load, steal)


def fmt(x):
    return "%.0f" % x if abs(x) >= 1e4 else "%.4g" % x


def print_table(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="metric whose values each pair "
                        "line prints")
    parser.add_argument("--workdir", default=os.path.join(
        tempfile.gettempdir(), "rafiki-perf-ab"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(args.workdir, exist_ok=True)
    sides = {}
    for name, rev in (("base", args.base), ("head", args.head)):
        sha, tree = export(rev, args.workdir)
        log("%s = %s: building" % (name, sha[:12]))
        built = run(tree, workloads[0], args.seed, 0, ("--seconds", "1"))
        if built["exit"] != 0 or built["result"] is None:
            raise SystemExit("%s (%s) did not build or run" % (name, sha))
        sides[name] = (sha, tree)
    stamp = built["stamp"]

    print("A/B base %s vs head %s: %d pairs, seeds %d-%d, trace %d, "
          "nproc %s, %s" % (sides["base"][0][:12], sides["head"][0][:12],
                            args.pairs, args.seed,
                            args.seed + args.pairs - 1, args.trace,
                            stamp["nproc"], stamp["cpu"]))
    bad = 0
    for workload in workloads:
        print("\n== %s" % workload)
        pairs = []
        for i in range(1, args.pairs + 1):
            seed = args.seed + i - 1
            order = ("base", "head") if i % 2 else ("head", "base")
            pair = {}
            for name in order:
                pair[name] = run(sides[name][1], workload, seed, args.trace)
                if not (pair[name]["result"] or {}).get("correct"):
                    bad += 1
            pairs.append(pair)
            line = "pair %2d seed %d %s first:" % (i, seed, order[0])
            for name in ("base", "head"):
                got = pair[name]["result"]
                line += "  %s failed %s lag_p99_us %s %s" % (
                    name, "-" if got is None else got["failed"],
                    lag(pair[name]), host(pair[name]))
                if got is not None and not got["correct"]:
                    line += " INCORRECT"
                if args.claim:
                    v = value(pair[name], args.claim)
                    line += " %s %s" % (args.claim,
                                        "-" if v is None else fmt(v))
            print(line, flush=True)

        rows = [("metric", "base median [Q1, Q3]", "head median [Q1, Q3]",
                 "change", "wins", "verdict")]
        for m in metrics:
            both = [(value(p["base"], m["name"]), value(p["head"], m["name"]))
                    for p in pairs]
            both = [(b, h) for b, h in both if b is not None and h is not None]
            if not both:
                continue
            base = [b for b, _ in both]
            head = [h for _, h in both]
            if m["better"] == "lower":
                wins = sum(h < b for b, h in both)
            else:
                wins = sum(h > b for b, h in both)
            mb, mh = statistics.median(base), statistics.median(head)
            change = "%+.1f%%" % (100 * (mh - mb) / abs(mb)) if mb else "-"
            cells = []
            for side in (base, head):
                q1, med, q3 = quartiles(side)
                cells.append("%s [%s, %s]" % (fmt(med), fmt(q1), fmt(q3)))
            rows.append((m["name"], cells[0], cells[1], change,
                         "%d/%d" % (wins, len(both)),
                         verdict(base, head, m["better"], m.get("bound"))))
        print_table(rows)

    if bad:
        print("\n%d run(s) were not correct" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
