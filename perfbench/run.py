#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

One run of one workload, as BENCHMARK.json's command:

    python3 perfbench/run.py --workload fig14_full --seed 1 --seconds 40 --trace 0

Every end-to-end and per-layer metric of every workload, in one go:

    python3 perfbench/run.py --report --seed 1 --seconds 40

The benchmark is compiled from the checkout's sources into
.bench_build/perfbench on first use; runs write only under .bench_build.
The last line of a run's stdout is its JSON result.

An untraced run is split over PROCESSES fresh processes, one after
another, each measuring its share of --seconds under its own seed drawn
from --seed; each metric is the median over the processes. Fresh
processes differ in speed more than the passes inside one process do, so
one process would give the run a single draw of that spread. A traced
run is one process.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("fig14_full", "fig15_full", "campaign_fig14")
# A run must end within 180 s; the build before the first run is not
# counted against this.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"
# Fresh processes per untraced run, and the untraced passes each makes
# at least; a traced run's one process makes more, between traced ones.
PROCESSES = 4
MIN_PASSES = 2
TRACED_MIN_PASSES = 3


def build():
    """Configure once, then let cmake rebuild whatever changed."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(step))
                return None
    return os.path.join(BUILD_DIR, "perfbench")


def run_process(binary, workload, seed, seconds, trace, min_passes,
                timeout):
    """Run one benchmark process; return (stdout text, result) or None."""
    work_dir = os.path.join(BUILD_ROOT, "work", "seed%d-trace%d" % (seed, trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace),
            "--min-passes", str(min_passes), "--work-dir", work_dir,
            "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    # Own process group: on a timeout the campaign's worker processes
    # are stopped together with the benchmark, and all are waited for.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: %s exited with %d\n"
                         % (workload, proc.returncode))
        return None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: %s printed no result\n" % workload)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: %s printed a malformed result\n"
                         % workload)
        return None
    return out, result


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload; return (stdout text, result) or None."""
    if trace:
        return run_process(binary, workload, seed, seconds, 1,
                           TRACED_MIN_PASSES, RUN_TIMEOUT_S)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reports = []
    results = []
    for index in range(PROCESSES):
        ran = run_process(binary, workload, seed * PROCESSES + index,
                          seconds / PROCESSES, 0, MIN_PASSES,
                          deadline - time.monotonic())
        if ran is None:
            return None
        reports.append("process %d of %d:\n%s" % (
            index + 1, PROCESSES, "\n".join(ran[0].strip().splitlines()[:-1])))
        results.append(ran[1])
    metrics = {}
    lines = ["end-to-end (medians over %d processes):" % PROCESSES]
    for name, first in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
        lines.append("  %-24s %.6f %s   per process: %s" % (
            name, metrics[name]["value"], first["unit"],
            " ".join("%.4f" % value for value in values)))
    merged = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }
    lines.append("error_rate: %d of %d jobs failed or wrong"
                 % (merged["failed"], merged["attempted"]))
    text = "\n\n".join(reports) + "\n\n" + "\n".join(lines) + "\n"
    return text + json.dumps(merged) + "\n", merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload is required (or --report)")

    binary = build()
    if binary is None:
        return 1
    if not args.report:
        ran = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace)
        if ran is None:
            return 1
        sys.stdout.write(ran[0])
        return 0

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            ran = run_once(binary, workload, args.seed, args.seconds, trace)
            if ran is None:
                status = 1
                continue
            # Human part only; the JSON line is the machine-readable result.
            sys.stdout.write("\n".join(ran[0].strip().splitlines()[:-1]))
            sys.stdout.write("\n\n")
            if not ran[1]["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
