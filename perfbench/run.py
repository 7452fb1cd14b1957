#!/usr/bin/env python3
"""Builds and runs the Rafiki end-to-end benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload serve_closed_tiny --seed 1 \
      --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

The first form builds rafiki_perfbench (Release, into .bench_build/perfbench) if
needed and runs one workload; its standard output ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 1 reruns the workload
with the timing decorators installed and prints the per-layer metrics
instead, writing the spans to .bench_build/traces/.

--smoke runs every workload briefly, traced and untraced, and asserts that
answers verify, the ledgers balance, and every metric BENCHMARK.json names is
printed with its unit (per-layer ones measured where the layer applies).
Failed operations are reported, not asserted.

Building needs the library sources (src/) next to this directory; without
them the script exits non-zero and prints no result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "rafiki_perfbench")

# Per-layer metric prefixes each workload must measure in its traced run;
# the other layers do no work there and read 0.
SERVE_LAYERS = ("net.", "rafiki.", "serving.", "nn.", "proc.", "client.",
                "trace.overhead_share", "trace.spans",
                "trace.client_self_p50_us")
TUNE_LAYERS = ("tuning.", "trainer.", "ps.", "cluster.", "nn.", "proc.",
               "trace.overhead_share", "trace.spans", "trace.study_self_share")
# Runnable and smoke-tested, but not scored: its latency spread between
# seeds (p50 18%, p99 37% of the median over 8 seeds) exceeds any usable
# bound, because the agent's online learning takes a different path each run.
UNSCORED = ("serve_sine_rl",)
# Window of each smoke run.
SMOKE_SECONDS = 3
LAYERS = {
    "serve_closed_tiny": SERVE_LAYERS,
    "serve_sine_ensemble": SERVE_LAYERS,
    "serve_sine_rl": SERVE_LAYERS,
    "tune_costudy": TUNE_LAYERS,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id():
    """The commit when run from a git clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: library sources not found at %s" %
            os.path.join(ROOT, "src"))
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Serialize concurrent builds of one checkout.
    with open(os.path.join(ROOT, ".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                   BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(os.cpu_count() or 1)
        return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                              stdout=sys.stderr).returncode == 0


def command(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--commit", source_id()]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%s.jsonl" % (workload, seed))]
    return cmd


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + list(UNSCORED):
        for trace in (0, 1):
            before = len(problems)
            out = subprocess.run(command(name, 1, SMOKE_SECONDS, trace),
                                 capture_output=True, text=True, timeout=170)
            tag = "%s trace=%d" % (name, trace)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (tag, out.returncode,
                                                      out.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            report = json.loads(next(l for l in lines
                                     if l.startswith("report "))[7:])
            if not result["correct"] or report["violations"]:
                problems.append("%s: checks failed: %s" %
                                (tag, report["violations"]))
            want = layers if trace else e2e
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics %s, want %s" % (tag, got, want))
            if trace:
                missing = [m for m in layers
                           if m.startswith(LAYERS[name])
                           and m not in report["measured"]]
                if missing:
                    problems.append("%s: not measured: %s" % (tag, missing))
            # Failed operations (e.g. responses stranded by the lost-wakeup
            # stall) are reported, not asserted: the checks above cover
            # wrong answers and the ledgers.
            log("%s: %s (failed %d of %d)" %
                (tag, "ok" if len(problems) == before else "FAIL",
                 result["failed"], result["attempted"]))
    for p in problems:
        log("SMOKE FAIL " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not build():
        log("error: build failed")
        return 1
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    sys.stdout.flush()
    return subprocess.run(command(args.workload, args.seed, args.seconds,
                                  args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
