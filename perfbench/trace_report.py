#!/usr/bin/env python3
"""Per-layer report of one traced benchmark run.

Reads the span and counter dump the benchmark binary writes with
--trace-out, and derives each layer's busy time, self time, span counts
and the per-layer metrics named in BENCHMARK.json.

    python3 perfbench/trace_report.py TRACE.tsv [--untraced-wall S --traced-wall S]

A span is named "layer.function"; its layer is the part before the
first dot. Busy time is the time covered by a layer's outermost spans;
self time is a span's duration minus the part its child spans cover.
"""

import argparse
import collections
import sys

# Spans the benchmark opens around submissions into the runtime.
COMMAND_SPANS = ("runtime.enqueueKernel", "runtime.enqueueCopy",
                 "runtime.enqueueRestructure")
SUBMIT_SPANS = COMMAND_SPANS + ("runtime.enqueueChain", "runtime.submitBatch")


class Span:
    __slots__ = ("index", "parent", "op", "name", "start_ns", "end_ns")

    def __init__(self, index, parent, op, name, start_ns, end_ns):
        self.index, self.parent, self.op = index, parent, op
        self.name, self.start_ns, self.end_ns = name, start_ns, end_ns

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def seconds(self):
        return (self.end_ns - self.start_ns) * 1e-9


def load(path):
    """Return (spans, counters) from a dump written by --trace-out."""
    spans, counters = [], {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "span":
                spans.append(Span(int(fields[1]), int(fields[2]),
                                  int(fields[3]), fields[4],
                                  int(fields[5]), int(fields[6])))
            elif fields[0] == "counter":
                counters[fields[1]] = float(fields[2])
    return spans, counters


def analyze(spans):
    """Return ({name: stats}, {layer: stats}); stats hold count, busy_s
    and self_s."""
    child_s = collections.defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds

    def blank():
        return {"count": 0, "busy_s": 0.0, "self_s": 0.0}

    by_name = collections.defaultdict(blank)
    by_layer = collections.defaultdict(blank)
    for s in spans:
        self_s = s.seconds - child_s[s.index]
        outer_in_layer = True
        p = s.parent
        while p >= 0:
            if spans[p].layer == s.layer:
                outer_in_layer = False
                break
            p = spans[p].parent
        for stats, top in ((by_name[s.name], True),
                           (by_layer[s.layer], outer_in_layer)):
            stats["count"] += 1
            stats["self_s"] += self_s
            if top:
                stats["busy_s"] += s.seconds
    return by_name, by_layer


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(by_name, counters, traced_wall=None,
                      untraced_wall=None):
    """Return the per-layer metrics of BENCHMARK.json as
    {name: (value, unit)}."""
    busy = lambda n: by_name[n]["busy_s"] if n in by_name else 0.0
    count = lambda n: by_name[n]["count"] if n in by_name else 0
    c = lambda n: counters.get(n, 0.0)
    m = {}

    def put(name, value, unit="count"):
        m[name] = (value, unit)
        return value

    put("apps.suite_s", busy("apps.standardSuite"), "s")

    cpu_s = put("restructure.cpu_exec_s", busy("restructure.executeOnCpu"),
                "s")
    put("restructure.cpu_exec_calls", count("restructure.executeOnCpu"))
    put("restructure.cpu_exec_ns_per_byte",
        ratio(cpu_s * 1e9, c("restructure.cpu_exec_bytes")), "ns/B")

    put("drx.devices", c("drx.devices"))
    put("drx.device_mb", c("drx.device_mb"), "MiB")
    put("drx.device_setup_s", busy("drx.addDrx"), "s")
    hits = put("drx.cache_hits", c("drx.cache_hits"))
    misses = put("drx.cache_misses", c("drx.cache_misses"))
    put("drx.cache_timing_hits", c("drx.cache_timing_hits"))
    put("drx.cache_hit_ratio", ratio(hits, hits + misses), "ratio")
    put("drx.repeat_share", ratio(c("drx.repeats"), c("drx.requests")),
        "ratio")

    put("runtime.submit_s", sum(busy(n) for n in SUBMIT_SPANS), "s")
    put("runtime.command_calls", sum(count(n) for n in COMMAND_SPANS))
    put("runtime.chain_calls", count("runtime.enqueueChain"))
    put("runtime.batch_calls", count("runtime.submitBatch"))
    drain_s = put("runtime.drain_s", busy("runtime.drain"), "s")
    put("runtime.retries", c("runtime.retries"))
    put("runtime.fallbacks", c("runtime.fallbacks"))

    events = put("sim.events", c("sim.events"))
    put("sim.ns_per_event", ratio(drain_s * 1e9, events), "ns")

    for n in ("bytes", "doorbells", "descriptor_fetches", "settle_visits",
              "peak_active_flows"):
        put("pcie." + n, c("pcie." + n), "B" if n == "bytes" else "count")
    for n in ("interrupts", "polls", "suppressed", "round_trips"):
        put("driver." + n, c("driver." + n))

    sys_s = put("sys.simulate_s", busy("sys.simulateSystem"), "s")
    sim_requests = put("sys.sim_requests", c("sys.sim_requests"))
    put("sys.us_per_sim_request", ratio(sys_s * 1e6, sim_requests), "us")

    serve_s = put("serve.simulate_s", busy("serve.simulateServing"), "s")
    put("serve.offered", c("serve.offered"))
    attempts = put("serve.attempts", c("serve.attempts"))
    put("serve.completed_per_attempt",
        ratio(c("serve.completed"), attempts), "ratio")
    hedges = put("serve.hedges_issued", c("serve.hedges_issued"))
    put("serve.hedge_win_ratio", ratio(c("serve.hedges_won"), hedges),
        "ratio")
    put("serve.us_per_attempt", ratio(serve_s * 1e6, attempts), "us")

    for n in ("shed", "backpressure_stalls", "breaker_opens"):
        put("robust." + n, c("robust." + n))
    for n in ("retries", "watchdog_timeouts"):
        put("fault." + n, c("fault." + n))

    put("bench.check_s", busy("bench.check"), "s")
    put("bench.prepare_s", busy("bench.prepare"), "s")
    put("bench.op_self_s",
        by_name["bench.op"]["self_s"] if "bench.op" in by_name else 0.0, "s")
    put("trace.spans", sum(s["count"] for s in by_name.values()))
    if traced_wall is not None and untraced_wall is not None:
        put("trace.overhead_s", traced_wall - untraced_wall, "s")
        put("trace.overhead_share",
            ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    return m


def format_report(by_name, by_layer, metrics):
    lines = ["%-12s %10s %12s %12s" % ("layer", "spans", "busy_s",
                                       "self_s")]
    for layer in sorted(by_layer, key=lambda l: -by_layer[l]["busy_s"]):
        s = by_layer[layer]
        lines.append("%-12s %10d %12.6f %12.6f" % (layer, s["count"],
                                                   s["busy_s"], s["self_s"]))
    lines.append("")
    lines.append("%-34s %10s %12s %12s" % ("span", "count", "busy_s",
                                           "self_s"))
    for name in sorted(by_name, key=lambda n: -by_name[n]["busy_s"]):
        s = by_name[name]
        lines.append("%-34s %10d %12.6f %12.6f" % (name, s["count"],
                                                   s["busy_s"], s["self_s"]))
    lines.append("")
    for name in sorted(metrics):
        value, unit = metrics[name]
        lines.append("%-34s %.6g %s" % (name, value, unit))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--traced-wall", type=float)
    ap.add_argument("--untraced-wall", type=float)
    args = ap.parse_args()
    spans, counters = load(args.trace)
    by_name, by_layer = analyze(spans)
    metrics = per_layer_metrics(by_name, counters, args.traced_wall,
                                args.untraced_wall)
    print(format_report(by_name, by_layer, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
