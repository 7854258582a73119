#!/usr/bin/env python3
"""Run one workload of the DMX simulator benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep|chain|serve --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark binary from
source into .bench_build/ (CMake, Release), runs the workload in a
process of its own, checks every op's output, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ops, "failed": failed ops, "metrics": {...}}

--trace 0 reports the end-to-end metrics from an untraced run.
--trace 1 runs the workload untraced and then traced, and reports the
per-layer metrics from the traced run's spans and counters, with the
tracing overhead (traced wall_s minus untraced wall_s).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import trace_report

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "dmx_perfbench")
WORKLOADS = ("sweep", "chain", "serve")
SETUP_SAMPLES = 5        # processes whose set-up time is measured per run
CHILD_LIMIT_S = 150      # a workload process is killed after this long
SIM_KEYS = ("sim_requests", "sim_makespan_ms", "sim_latency_ms_p99")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "dmx_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_child(args):
    """Run the binary with @args in its own process.

    Returns (summary dict, wall seconds, peak RSS in MiB, spawn time);
    the spawn time is CLOCK_MONOTONIC, the clock the child stamps its
    first op with.
    """
    t0 = time.monotonic()
    p = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_LIMIT_S, p.kill)
    timer.start()
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(args), p.returncode))
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise BenchError("no output from " + " ".join(args))
    return json.loads(lines[-1]), wall, usage.ru_maxrss / 1024.0, t0


def workload_args(workload, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    digests = os.path.join(HERE, "digests", workload + ".txt")
    if os.path.exists(digests):
        args += ["--digests", digests]
    return args


def describe_failures(summary):
    for e in summary.get("errors", []):
        log("failed " + e)


def end_to_end(workload, seed, seconds):
    args = workload_args(workload, seed, seconds)
    run, wall, rss, t0 = run_child(args)
    describe_failures(run)
    setup = [run["first_op_mono"] - t0]
    for _ in range(SETUP_SAMPLES - 1):
        s, _, _, t = run_child(args + ["--setup-only"])
        setup.append(s["first_op_mono"] - t)
    ops, failed = run["ops"], run["failed"]
    print("%s seed %d: %d ops, failed_ratio %.6g (%d/%d), %d of them "
          "checked against pinned digests" % (workload, seed, ops,
                                              failed / ops, failed, ops,
                                              run["pinned_checked"]))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "sim_req_per_host_s": (run["sim_requests"] / run["op_seconds"],
                               "1/s"),
        "op_ms_p50": (run["op_ms_p50"], "ms"),
        "op_ms_p90": (run["op_ms_p90"], "ms"),
        "peak_rss_mb": (rss, "MiB"),
        "sim_makespan_ms": (run["sim_makespan_ms"], "sim_ms"),
        "sim_latency_ms_p99": (run["sim_latency_ms_p99"], "sim_ms"),
    }
    return failed == 0, ops, failed, metrics


def per_layer(workload, seed, seconds):
    args = workload_args(workload, seed, seconds)
    plain, plain_wall, _, _ = run_child(args)
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    path = os.path.join(BUILD_DIR, "traces",
                        "%s-seed%d.tsv" % (workload, seed))
    traced, traced_wall, _, _ = run_child(args + ["--trace-out", path])
    describe_failures(traced)

    spans, counters = trace_report.load(path)
    by_name, by_layer = trace_report.analyze(spans)
    layer_metrics = trace_report.per_layer_metrics(
        by_name, counters, traced_wall, plain_wall)
    print(trace_report.format_report(by_name, by_layer, layer_metrics))

    agree = plain["failed"] == traced["failed"] and all(
        plain[k] == traced[k] for k in SIM_KEYS)
    if not agree:
        log("traced and untraced runs disagree on sim_ metrics or "
            "failed ops")
    ops, failed = traced["ops"], traced["failed"]
    correct = agree and failed == 0 and plain["failed"] == 0
    return correct, ops, failed, layer_metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        measure = per_layer if args.trace else end_to_end
        correct, ops, failed, metrics = measure(args.workload, args.seed,
                                                args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(ops),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
