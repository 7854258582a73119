/**
 * @file
 * dmx_perfbench: runs one workload of the DMX simulator benchmark in
 * this process and prints one JSON summary line. run.py launches it
 * (one process per workload run) and turns the summary into metrics.
 *
 *   dmx_perfbench --workload sweep|chain|serve --seed N --seconds S
 *                 [--digests FILE]     pinned digests to compare with
 *                 [--trace-out FILE]   record spans and counters
 *                 [--setup-only]       stop where the first op would start
 *                 [--emit-digests]     print "digest <key> <digest>" lines
 *                 [--flip-op K]        corrupt one output byte of op K
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string digests;
    std::string trace_out;
    bool setup_only = false;
    bool emit_digests = false;
    long long flip_op = -1;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "dmx_perfbench: %s\n", why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--digests")
            o.digests = value();
        else if (a == "--trace-out")
            o.trace_out = value();
        else if (a == "--flip-op")
            o.flip_op = std::strtoll(value().c_str(), nullptr, 10);
        else if (a == "--setup-only")
            o.setup_only = true;
        else if (a == "--emit-digests")
            o.emit_digests = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    // Chain draws a new shape for every unique request: 60 s of rounds
    // need about 29000, inside its space of about 54000 (as the small
    // kernels' shapes run out, draws move on to the larger ones).
    if (!(o.seconds > 0 && o.seconds <= 60))
        usage("--seconds must be in (0, 60]");
    return o;
}

/** Pinned digests: "<key> <digest>" per line, both 16 hex digits. */
std::unordered_map<std::uint64_t, std::uint64_t>
loadDigests(const std::string &path)
{
    std::unordered_map<std::uint64_t, std::uint64_t> pinned;
    if (path.empty())
        return pinned;
    std::ifstream in(path);
    if (!in)
        usage(("cannot read digests " + path).c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, digest;
        if (!(ls >> key >> digest))
            usage(("bad digest line: " + line).c_str());
        pinned[std::stoull(key, nullptr, 16)] =
            std::stoull(digest, nullptr, 16);
    }
    return pinned;
}

/** Nearest-rank percentile (p in (0, 1]); 0 when empty. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

std::uint64_t
keyOf(const std::string &input)
{
    Digest d;
    d.str(input);
    return d.value();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(opt.workload, opt.seed);
    if (!wl)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    Tracer &tracer = Tracer::get();
    if (!opt.trace_out.empty())
        tracer.enable();

    {
        Scope s("bench.setup");
        wl->setup();
    }
    const std::size_t ops = wl->opsFor(opt.seconds);
    {
        Scope s("bench.prepare");
        wl->prepare(0);
    }
    const double first_op = monoSeconds();
    if (opt.setup_only) {
        std::printf("{\"first_op_mono\": %.9f}\n", first_op);
        return 0;
    }
    const auto pinned = loadDigests(opt.digests);

    std::size_t failed = 0, checked = 0, mismatched = 0;
    std::vector<std::string> errors;
    std::vector<double> op_ms, latencies_ms;
    op_ms.reserve(ops);
    double op_seconds = 0, sim_requests = 0, sim_makespan_ms = 0;

    for (std::size_t i = 0; i < ops; ++i) {
        if (i > 0) {
            Scope s("bench.prepare");
            wl->prepare(i);
        }
        tracer.setOp(static_cast<std::int64_t>(i));
        const double t0 = monoSeconds();
        {
            Scope s("bench.op");
            wl->run(i);
        }
        const double dt = monoSeconds() - t0;
        op_ms.push_back(dt * 1e3);
        op_seconds += dt;

        Scope s("bench.check");
        const OpResult r =
            wl->check(i, static_cast<long long>(i) == opt.flip_op);
        const std::uint64_t key = keyOf(wl->describe(i));
        std::string error = r.error;
        if (const auto it = pinned.find(key); it != pinned.end()) {
            ++checked;
            if (it->second != r.digest) {
                ++mismatched;
                if (error.empty())
                    error = "simulated results differ from the pinned "
                            "digest";
            }
        }
        if (!error.empty()) {
            ++failed;
            if (errors.size() < 5)
                errors.push_back("op " + std::to_string(i) + ": " + error);
        }
        if (opt.emit_digests)
            std::printf("digest %016llx %016llx\n",
                        static_cast<unsigned long long>(key),
                        static_cast<unsigned long long>(r.digest));
        sim_requests += r.sim_requests;
        sim_makespan_ms += r.sim_makespan_ms;
        latencies_ms.insert(latencies_ms.end(), r.latencies_ms.begin(),
                            r.latencies_ms.end());
    }
    tracer.setOp(-1);

    if (tracer.enabled()) {
        wl->publishCounters();
        if (!tracer.write(opt.trace_out)) {
            std::fprintf(stderr, "dmx_perfbench: cannot write %s\n",
                         opt.trace_out.c_str());
            return 1;
        }
    }

    std::string errs = "[";
    for (std::size_t k = 0; k < errors.size(); ++k)
        errs += (k ? ", " : "") + jsonString(errors[k]);
    errs += "]";
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"ops\": %zu, "
        "\"failed\": %zu, \"pinned_checked\": %zu, "
        "\"pinned_mismatched\": %zu, \"errors\": %s, "
        "\"first_op_mono\": %.9f, \"op_seconds\": %.9f, "
        "\"op_ms_p50\": %.6f, \"op_ms_p90\": %.6f, "
        "\"sim_requests\": %.17g, \"sim_makespan_ms\": %.17g, "
        "\"sim_latency_ms_p99\": %.17g}\n",
        jsonString(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed), ops, failed, checked,
        mismatched, errs.c_str(), first_op, op_seconds,
        percentile(op_ms, 0.5), percentile(op_ms, 0.9), sim_requests,
        sim_makespan_ms, percentile(latencies_ms, 0.99));
    return 0;
}
