#!/usr/bin/env python3
"""Builds and runs one workload of the dphist benchmark.

    python3 perfbench/run.py --workload refresh_scan --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file). The first run configures and builds perfbench_run with
the program's own sources into .bench_build/perfbench/build; later runs
only check that build, and a run that did build waits for the host to
settle before it measures. An untraced run splits --seconds over several
processes, one after the other; each sets up once (setup_s is its time
from process start to the first timed operation) and measures its share,
and every end-to-end metric is the median over the processes. A traced
run is one process. The processes' human-readable reports are copied to
standard output and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (its Chrome trace is written under
.bench_build/perfbench/work). The exit code is 0 only when every output
check and determinism guard passed; the set-up work counts of every
process must agree with each other and with those that earlier runs of
the same build and seed recorded in .bench_build/perfbench/guards.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("refresh_scan", "planner_reads", "maintenance_window",
             "ingest_churn")
# Processes an untraced run is split over. Each keeps enough samples for
# its workload's tail percentile: slow operations get fewer, longer ones.
PROCESSES = {"refresh_scan": 5, "planner_reads": 5, "maintenance_window": 3,
             "ingest_churn": 2}
BUILD_TIMEOUT_S = 800
SETTLE_AFTER_BUILD_S = 30
# Wall-clock budget of all the processes of one run, build excluded.
RUN_BUDGET_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_run.

    Returns its path and whether this call rebuilt it.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("program sources not found at %s/src" % ROOT)
    build_dir = os.path.join(STATE, "build")
    exe = os.path.join(build_dir, "perfbench_run")
    os.makedirs(STATE, exist_ok=True)
    with open(os.path.join(STATE, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=True)
        before = os.stat(exe).st_mtime_ns if os.path.isfile(exe) else None
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
    return exe, os.stat(exe).st_mtime_ns != before


def fingerprint(path):
    """Hash of the built program: only runs of the same code compare."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def guard_problems(name, expected, actual):
    return ["%s: %s was %s, now %s" % (name, key, expected.get(key),
                                        actual.get(key))
            for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)]


def check_ledger(build_id, workload, seed, setup_guards):
    """Compares the set-up work counts with earlier runs of this build.

    The set-up (its warm-up pass included) is a fixed amount of work, so
    its counts depend only on the program and the seed. Returns the
    mismatches.
    """
    path = os.path.join(STATE, "guards.json")
    with open(os.path.join(STATE, "guards.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ledger = {}
        if os.path.isfile(path):
            with open(path) as f:
                ledger = json.load(f)
        key = "%s|%s|seed=%d" % (build_id, workload, seed)
        problems = guard_problems(key, ledger.setdefault(key, setup_guards),
                                  setup_guards)
        with open(path + ".tmp", "w") as f:
            json.dump(ledger, f, sort_keys=True)
        os.replace(path + ".tmp", path)
    return problems


def run_process(cmd, deadline):
    """Runs perfbench_run; returns its parsed RESULT and its other lines."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    result, lines = None, []
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            lines.append(line)
    if proc.returncode != 0 or result is None:
        raise RuntimeError("%s exited %d without a result" %
                           (" ".join(cmd[1:3]), proc.returncode))
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe, rebuilt = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log("perfbench: build failed: %s" % error)
        return 2
    if rebuilt:
        log("perfbench: built; waiting %d s for the host to settle" %
            SETTLE_AFTER_BUILD_S)
        time.sleep(SETTLE_AFTER_BUILD_S)

    processes = 1 if args.trace else PROCESSES[args.workload]
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(STATE, "work")]
    deadline = time.monotonic() + RUN_BUDGET_S
    results = []
    try:
        for _ in range(processes):
            result, lines = run_process(cmd, deadline)
            results.append(result)
            for line in lines:
                print(line)
    except (RuntimeError, subprocess.SubprocessError) as error:
        log("perfbench: %s: %s" % (args.workload, error))
        return 2

    correct = all(r["correct"] for r in results)
    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    first = results[0]["setup_guards"]
    problems = []
    for k, result in enumerate(results[1:], 1):
        problems += guard_problems("process %d vs 0" % k, first,
                                   result["setup_guards"])
    problems += check_ledger(fingerprint(exe), args.workload, args.seed,
                             first)
    for problem in problems:
        print("FLAGGED (set-up work counts differ): " + problem)
        correct = False
        failed += 1
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
        if processes > 1:
            print("%-28s median %-14.6g of %s" % (
                name, metrics[name]["value"],
                " ".join("%.6g" % v for v in values)))
    sys.stdout.flush()
    print(json.dumps({"correct": correct,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
