#!/usr/bin/env python3
"""Pin the simulated-result digests of the benchmark's default seeds.

    python3 perfbench/pin_digests.py [--workload W ...] [--seeds 1-10]

Run it from the repository root. For every workload and seed it runs
the benchmark binary for BENCHMARK.json's run_seconds, collects the
"<input key> <result digest>" pair of every op, and writes them to
perfbench/digests/<workload>.txt. An input key met twice with two
different digests means the simulator is not deterministic, and the
script stops without writing anything.

Re-pin only on purpose: when a change to the simulator is meant to
change its simulated results, or when the benchmark's inputs change.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

import run

DEFAULT_SEEDS = "1-10"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workload, seed, seconds):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--emit-digests"],
        stdout=subprocess.PIPE, check=True, text=True).stdout
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    if summary["failed"]:
        raise run.BenchError("%s seed %d: %s" % (workload, seed,
                                                 summary["errors"]))
    return [l.split()[1:] for l in lines if l.startswith("digest ")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seeds", default=DEFAULT_SEEDS)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    run.build()
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=2)
    for workload in args.workload or run.WORKLOADS:
        pinned = {}
        runs = pool.map(lambda s: collect(workload, s, seconds),
                        parse_seeds(args.seeds))
        for pairs in runs:
            for key, digest in pairs:
                if pinned.setdefault(key, digest) != digest:
                    print("%s: input %s gave digests %s and %s" %
                          (workload, key, pinned[key], digest),
                          file=sys.stderr)
                    return 1
        path = os.path.join(run.HERE, "digests", workload + ".txt")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("# %s: <input key> <simulated-result digest>, seeds %s, "
                    "%s s runs; written by perfbench/pin_digests.py\n"
                    % (workload, args.seeds, seconds))
            for key in sorted(pinned):
                f.write("%s %s\n" % (key, pinned[key]))
        print("%s: %d inputs pinned" % (workload, len(pinned)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
