/**
 * @file
 * chain: functional cross-domain chains with real bytes through
 * runtime::Platform (2 accelerators, 2 DRX devices). One op is one
 * round: a fresh Context with 8 requests in flight in simulated time.
 *
 * A request runs kernel -> p2p copy -> DRX restructure -> copy ->
 * kernel. The restructure is a catalog kernel with a seeded shape:
 * half the requests reuse one of 8 hot (kernel, shape) pairs drawn at
 * set-up, the rest use a shape never seen before in the run. Requests
 * go a third each through the per-command queues, enqueueChain (half
 * of those fused: the catalog kernel is split in two descriptors the
 * DRX fuses back) and submitBatch.
 *
 * The checker compares every stage with a direct computation: the
 * accelerator stages with the kernel function applied by hand, the
 * DRX stage with restructure::executeOnCpu.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <tuple>

#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "runtime/batch.hh"
#include "runtime/chain.hh"
#include "runtime/runtime.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace dmx;
using runtime::BufferId;
using runtime::Bytes;
using runtime::DeviceId;

constexpr unsigned requests_per_round = 8;
constexpr unsigned hot_pairs = 8;

/// Ops per second of --seconds, measured on a 4-core x86 box: a run's
/// op time is about 0.8 x --seconds, and the checker about doubles it.
constexpr double ops_per_second = 120;

enum class Kind { Mel, Video, Brain, Text, Db, Reduce, Count };
constexpr const char *kind_names[] = {"mel",  "video", "brain",
                                      "text", "db",    "reduce"};

/** A catalog kernel and its shape parameters: the cache's pair. */
struct Shape
{
    Kind kind = Kind::Mel;
    unsigned a = 0, b = 0, c = 0;

    auto tie() const { return std::tie(kind, a, b, c); }
    bool operator<(const Shape &o) const { return tie() < o.tie(); }
};

/**
 * Draws shape parameters: over each whole range for a unique shape, or
 * from the middle sixteenth of each range for a hot one. The 8 hot
 * pairs carry half of all requests, so centring them keeps a run's cost
 * about the same from one seed to the next.
 */
struct ShapeDraw
{
    SplitMix &rng;
    bool hot;

    unsigned pick(unsigned n) { return hot ? n / 2 : rng.below(n); }

    unsigned
    range(unsigned lo, unsigned span)
    {
        return hot ? lo + 15 * span / 32 + rng.below(span / 16)
                   : lo + rng.below(span);
    }
};

Shape
drawShape(ShapeDraw d, Kind kind)
{
    static constexpr unsigned bins[] = {33, 65, 129};
    Shape s;
    s.kind = kind;
    switch (kind) {
      case Kind::Mel:
        s.a = d.range(32, 128);             // frames
        s.b = bins[d.pick(3)];              // bins
        s.c = 16 + 2 * d.pick(9);           // mels
        break;
      case Kind::Video:
        s.a = d.range(64, 128);             // src_h
        s.b = 128 + 16 * d.pick(9);         // src_w
        s.c = 16 << d.pick(2);              // dst
        break;
      case Kind::Brain:
        s.a = d.range(32, 128);             // frames
        s.b = bins[d.pick(3)];              // bins
        s.c = 4 + d.pick(13);               // bands
        break;
      case Kind::Text:
        s.b = 32 << d.pick(2);              // record
        s.a = s.b * d.range(256, 768);      // len
        s.c = s.b + 16 * (1 + d.pick(2));   // padded
        break;
      case Kind::Db:
        s.a = d.range(1024, 15360);         // rows
        s.b = d.pick(2);                    // partition
        break;
      case Kind::Reduce:
        s.a = 2u << d.pick(3);              // n_sources
        s.b = d.range(1024, 3072);          // elems
        break;
      case Kind::Count:
        break;
    }
    return s;
}

restructure::Kernel
buildKernel(const Shape &s)
{
    switch (s.kind) {
      case Kind::Mel:
        return restructure::melSpectrogram(s.a, s.b, s.c);
      case Kind::Video:
        return restructure::videoFrameRestructure(s.a, s.b, s.c);
      case Kind::Brain:
        return restructure::brainSignalRestructure(s.a, s.b, s.c);
      case Kind::Text:
        return restructure::textRecordRestructure(s.a, s.b, s.c);
      case Kind::Db:
        return restructure::dbColumnarize(s.a, s.b != 0);
      case Kind::Reduce:
      case Kind::Count:
        break;
    }
    return restructure::vectorReduction(s.a, s.b);
}

/** Split @p k after its first stage: the two descriptors a fused
 *  chain hands the DRX. Single-stage kernels stay whole. */
std::vector<restructure::Kernel>
splitKernel(const restructure::Kernel &k)
{
    if (k.stages.size() < 2)
        return {k};
    restructure::Kernel head = k, tail = k;
    head.name += "_head";
    head.stages.resize(1);
    tail.name += "_tail";
    tail.input = head.output();
    tail.stages.erase(tail.stages.begin());
    return {head, tail};
}

Bytes
randomInput(const restructure::BufferDesc &d, SplitMix &rng)
{
    Bytes out(d.bytes());
    if (d.dtype == DType::F32) {
        for (std::size_t i = 0; i + 4 <= out.size(); i += 4) {
            const float v = static_cast<float>(rng.unit() * 2.0 - 1.0);
            std::memcpy(out.data() + i, &v, 4);
        }
    } else {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.next());
    }
    return out;
}

/** Accelerator 0: rotate the buffer left by one 4-byte word, which
 *  keeps every f32/f16/u8 element of the input intact. */
Bytes
kernelRotate(const Bytes &in, kernels::OpCount &ops)
{
    Bytes out(in.size());
    const std::size_t n = in.size(), s = n >= 4 ? 4 : 0;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[(i + s) % n];
    ops.int_ops += n;
    ops.bytes_read += n;
    ops.bytes_written += n;
    return out;
}

/** Accelerator 1: reverse the bytes and mask them. */
Bytes
kernelReverse(const Bytes &in, kernels::OpCount &ops)
{
    Bytes out(in.rbegin(), in.rend());
    for (auto &b : out)
        b ^= 0x5a;
    ops.int_ops += 2 * in.size();
    ops.bytes_read += in.size();
    ops.bytes_written += in.size();
    return out;
}

std::uint64_t
hashBytes(const Bytes &b)
{
    Digest d;
    d.bytes(b.data(), b.size());
    return d.value();
}

enum class Path { Commands, Chain, Batch };
constexpr const char *path_names[] = {"commands", "chain", "batch"};

struct Request
{
    Shape shape;
    bool hot = false;
    bool repeat = false; ///< (kernel, shape) seen earlier in the run
    Path path = Path::Commands;
    bool fused = false;
    DeviceId drx = 0;
    restructure::Kernel kernel;
    Bytes input;

    BufferId b_in = 0, b_k1 = 0, b_drx_in = 0, b_drx_out = 0,
             b_acc1_in = 0, b_out = 0;
    runtime::Event done;       ///< Commands path: final kernel
    runtime::ChainEvent chain; ///< Chain path
    std::size_t member = 0;    ///< Batch path: member index
};

class Chain : public Workload
{
  public:
    explicit Chain(std::uint64_t seed)
        : _seed(seed), _rng(mixSeed(seed, 1))
    {
    }

    void
    setup() override
    {
        {
            Scope s("runtime.addAccelerator");
            _acc0 = _plat.addAccelerator("acc0", accel::Domain::FFT,
                                         kernelRotate);
            _acc1 = _plat.addAccelerator("acc1", accel::Domain::SVM,
                                         kernelReverse);
        }
        for (const char *name : {"drx0", "drx1"}) {
            Scope s("drx.addDrx");
            _drx.push_back(_plat.addDrx(name, _drx_cfg));
        }
        SplitMix rng(mixSeed(_seed, 0));
        constexpr auto kinds = static_cast<unsigned>(Kind::Count);
        while (_hot.size() < hot_pairs) {
            const Shape s = drawShape(
                {rng, true}, static_cast<Kind>(_hot.size() % kinds));
            if (_hot_set.insert(s).second)
                _hot.push_back(s);
        }
    }

    std::size_t
    opsFor(double seconds) const override
    {
        return std::max<std::size_t>(
            100, static_cast<std::size_t>(seconds * ops_per_second));
    }

    void
    prepare(std::size_t i) override
    {
        _batch = {};
        _reqs.assign(requests_per_round, Request{});
        for (unsigned j = 0; j < requests_per_round; ++j) {
            const std::uint64_t g = i * requests_per_round + j;
            Request &rq = _reqs[j];
            rq.hot = _rng.unit() < 0.5;
            if (rq.hot) {
                rq.shape = _hot[_rng.below(hot_pairs)];
            } else {
                do
                    rq.shape = drawShape(
                        {_rng, false},
                        static_cast<Kind>(_rng.below(
                            static_cast<unsigned>(Kind::Count))));
                while (_seen.count(rq.shape) || _hot_set.count(rq.shape));
            }
            rq.repeat = !_seen.insert(rq.shape).second;
            rq.path = static_cast<Path>(g % 3);
            rq.fused = rq.path == Path::Chain && (g / 3) % 2 == 1;
            rq.drx = _drx[g % _drx.size()];
            rq.kernel = buildKernel(rq.shape);
            rq.input = randomInput(rq.kernel.input, _rng);
            ++_requests;
            _repeats += rq.repeat;
        }
    }

    void
    run(std::size_t) override
    {
        {
            Scope s("runtime.destroyContext");
            _ctx.reset();
        }
        {
            Scope s("runtime.createContext");
            _ctx = _plat.createContextPtr();
        }
        runtime::Context &ctx = *_ctx;
        {
            Scope s("runtime.createBuffer");
            for (Request &rq : _reqs) {
                rq.b_in = ctx.createBuffer(rq.input);
                rq.b_k1 = ctx.createBuffer();
                rq.b_drx_in = ctx.createBuffer();
                rq.b_drx_out = ctx.createBuffer();
                rq.b_acc1_in = ctx.createBuffer();
                rq.b_out = ctx.createBuffer();
            }
        }
        _start = _plat.now();

        std::vector<runtime::BatchOp> batch;
        for (Request &rq : _reqs) {
            switch (rq.path) {
              case Path::Commands:
                submitCommands(rq);
                break;
              case Path::Chain: {
                runtime::ChainOptions opts;
                opts.fuse = rq.fused;
                const auto ops = chainOps(
                    rq, rq.fused ? splitKernel(rq.kernel)
                                 : std::vector{rq.kernel});
                Scope s("runtime.enqueueChain");
                rq.chain = runtime::enqueueChain(ctx, ops, opts);
                break;
              }
              case Path::Batch: {
                runtime::BatchOp op;
                op.kind = runtime::BatchOp::Kind::Chain;
                op.chain = chainOps(rq, {rq.kernel});
                rq.member = batch.size();
                batch.push_back(std::move(op));
                break;
              }
            }
        }
        if (!batch.empty()) {
            Scope s("runtime.submitBatch");
            _batch = runtime::submitBatch(ctx, batch);
        }
        Scope s("runtime.drain");
        _plat.drain();
    }

    OpResult
    check(std::size_t, bool flip) override
    {
        OpResult r;
        Digest d;
        Tick makespan = 0;
        for (std::size_t j = 0; j < _reqs.size(); ++j) {
            const Request &rq = _reqs[j];
            const std::string err = checkRequest(rq, flip && j == 0, d);
            if (!err.empty()) {
                if (r.error.empty())
                    r.error = "request " + std::to_string(j) + " (" +
                              path_names[static_cast<int>(rq.path)] + " " +
                              kind_names[static_cast<int>(rq.shape.kind)] +
                              "): " + err;
                continue;
            }
            const Tick lat = settleTick(rq) - _start;
            makespan = std::max(makespan, lat);
            r.latencies_ms.push_back(ticksToMs(lat));
            r.sim_requests += 1;
        }
        r.sim_makespan_ms = ticksToMs(makespan);
        r.digest = d.value();
        return r;
    }

    std::string
    describe(std::size_t i) const override
    {
        std::string s = "chain seed=" + std::to_string(_seed) +
                        " round=" + std::to_string(i);
        for (const Request &rq : _reqs) {
            char buf[160];
            std::snprintf(
                buf, sizeof buf,
                " [%s %u %u %u hot=%d path=%s fused=%d drx=%zu in=%016llx]",
                kind_names[static_cast<int>(rq.shape.kind)], rq.shape.a,
                rq.shape.b, rq.shape.c, rq.hot,
                path_names[static_cast<int>(rq.path)], rq.fused, rq.drx,
                static_cast<unsigned long long>(hashBytes(rq.input)));
            s += buf;
        }
        return s;
    }

    void
    publishCounters() override
    {
        Tracer &t = Tracer::get();
        t.counter("drx.devices", static_cast<double>(_drx.size()));
        t.counter("drx.device_mb",
                  static_cast<double>(_drx.size() * _drx_cfg.dram_bytes) /
                      static_cast<double>(mib));
        const drx::CacheCounters &cc = _plat.drxCache().counters();
        t.counter("drx.cache_hits", static_cast<double>(cc.compile_hits));
        t.counter("drx.cache_misses",
                  static_cast<double>(cc.compile_misses));
        t.counter("drx.cache_timing_hits",
                  static_cast<double>(cc.timing_hits));
        t.counter("drx.requests", static_cast<double>(_requests));
        t.counter("drx.repeats", static_cast<double>(_repeats));

        double retries = 0, fallbacks = 0, timeouts = 0, shed = 0;
        for (DeviceId dev = 0; dev < _plat.deviceCount(); ++dev) {
            const runtime::DeviceFaultStats &fs = _plat.faultStats(dev);
            retries += static_cast<double>(fs.retries);
            fallbacks += static_cast<double>(fs.fallbacks);
            timeouts += static_cast<double>(fs.timeouts);
            shed += static_cast<double>(fs.shed);
        }
        t.counter("runtime.retries", retries);
        t.counter("runtime.fallbacks", fallbacks);
        t.counter("fault.retries", retries);
        t.counter("fault.watchdog_timeouts", timeouts);
        t.counter("robust.shed", shed);

        t.counter("sim.events",
                  static_cast<double>(_plat.eventQueue().executedCount()));
        const pcie::Fabric &fab = _plat.fabric();
        t.counter("pcie.bytes", static_cast<double>(fab.totalBytes()));
        t.counter("pcie.doorbells", static_cast<double>(fab.doorbells()));
        t.counter("pcie.descriptor_fetches",
                  static_cast<double>(fab.descriptorFetches()));
        t.counter("pcie.settle_visits",
                  static_cast<double>(fab.settleVisits()));
        t.counter("pcie.peak_active_flows",
                  static_cast<double>(fab.peakActiveFlows()));
        const driver::InterruptController &irq = _plat.irq();
        t.counter("driver.interrupts",
                  static_cast<double>(irq.interruptsDelivered()));
        t.counter("driver.polls", static_cast<double>(irq.pollsDelivered()));
        t.counter("driver.suppressed",
                  static_cast<double>(irq.suppressedNotifications()));
    }

  private:
    /** The five descriptors of @p rq with @p kernels on the DRX. */
    std::vector<runtime::ChainOp>
    chainOps(const Request &rq, std::vector<restructure::Kernel> kernels)
    {
        using Op = runtime::ChainOp;
        std::vector<Op> ops(5);
        ops[0].kind = Op::Kind::Kernel;
        ops[0].device = _acc0;
        ops[0].in = rq.b_in;
        ops[0].out = rq.b_k1;
        ops[1].kind = Op::Kind::Copy;
        ops[1].device = _acc0;
        ops[1].dst_device = rq.drx;
        ops[1].in = rq.b_k1;
        ops[1].out = rq.b_drx_in;
        ops[2].kind = Op::Kind::Restructure;
        ops[2].device = rq.drx;
        ops[2].in = rq.b_drx_in;
        ops[2].out = rq.b_drx_out;
        ops[2].kernels = std::move(kernels);
        ops[3].kind = Op::Kind::Copy;
        ops[3].device = rq.drx;
        ops[3].dst_device = _acc1;
        ops[3].in = rq.b_drx_out;
        ops[3].out = rq.b_acc1_in;
        ops[4].kind = Op::Kind::Kernel;
        ops[4].device = _acc1;
        ops[4].in = rq.b_acc1_in;
        ops[4].out = rq.b_out;
        return ops;
    }

    /** Per-command path: each stage is enqueued when the previous
     *  cross-device copy settles, in simulated time. */
    void
    submitCommands(Request &rq)
    {
        runtime::CommandQueue &q0 = _ctx->queue(_acc0);
        runtime::Event copy;
        {
            Scope s("runtime.enqueueKernel");
            q0.enqueueKernel(rq.b_in, rq.b_k1);
        }
        {
            Scope s("runtime.enqueueCopy");
            copy = q0.enqueueCopy(rq.b_k1, rq.b_drx_in, rq.drx);
        }
        runtime::onSettled(copy, [this, &rq, copy] {
            if (!copy.ok())
                return;
            runtime::CommandQueue &qd = _ctx->queue(rq.drx);
            runtime::Event copy2;
            {
                Scope s("runtime.enqueueRestructure");
                qd.enqueueRestructure(rq.kernel, rq.b_drx_in, rq.b_drx_out);
            }
            {
                Scope s("runtime.enqueueCopy");
                copy2 = qd.enqueueCopy(rq.b_drx_out, rq.b_acc1_in, _acc1);
            }
            runtime::onSettled(copy2, [this, &rq, copy2] {
                if (!copy2.ok())
                    return;
                Scope s("runtime.enqueueKernel");
                rq.done = _ctx->queue(_acc1).enqueueKernel(rq.b_acc1_in,
                                                           rq.b_out);
            });
        });
    }

    runtime::Status
    status(const Request &rq) const
    {
        switch (rq.path) {
          case Path::Commands:
            return rq.done.status();
          case Path::Chain:
            return rq.chain.status();
          case Path::Batch:
            return _batch.records()[rq.member].status;
        }
        return runtime::Status::Pending;
    }

    Tick
    settleTick(const Request &rq) const
    {
        switch (rq.path) {
          case Path::Commands:
            return rq.done.completeTime();
          case Path::Chain:
            return rq.chain.completeTime();
          case Path::Batch:
            break;
        }
        return _batch.member(rq.member).completeTime();
    }

    /** Compare every stage of @p rq with a direct computation. */
    std::string
    checkRequest(const Request &rq, bool flip, Digest &d)
    {
        const runtime::Status st = status(rq);
        d.u64(static_cast<std::uint64_t>(st));
        if (st != runtime::Status::Ok)
            return "settled " + runtime::toString(st);
        d.u64(settleTick(rq) - _start);

        kernels::OpCount ops;
        const Bytes k1 = kernelRotate(rq.input, ops);
        Bytes drx_out;
        {
            Scope s("restructure.executeOnCpu");
            drx_out = restructure::executeOnCpu(rq.kernel, k1);
        }
        Tracer::get().add("restructure.cpu_exec_bytes",
                          static_cast<double>(k1.size()));
        const Bytes out = kernelReverse(drx_out, ops);

        Bytes got_drx = _ctx->read(rq.b_drx_out);
        if (flip && !got_drx.empty())
            got_drx[0] ^= 1;
        d.u64(hashBytes(got_drx));
        d.u64(hashBytes(_ctx->read(rq.b_out)));
        if (_ctx->read(rq.b_k1) != k1)
            return "accelerator 0 output differs from its kernel";
        if (_ctx->read(rq.b_drx_in) != k1)
            return "copy into the DRX changed the bytes";
        if (got_drx != drx_out)
            return "DRX output differs from executeOnCpu";
        if (_ctx->read(rq.b_acc1_in) != drx_out)
            return "copy out of the DRX changed the bytes";
        if (_ctx->read(rq.b_out) != out)
            return "accelerator 1 output differs from its kernel";
        return {};
    }

    std::uint64_t _seed;
    SplitMix _rng;
    runtime::Platform _plat;
    drx::DrxConfig _drx_cfg;
    DeviceId _acc0 = 0, _acc1 = 0;
    std::vector<DeviceId> _drx;
    std::vector<Shape> _hot;
    std::set<Shape> _hot_set;
    std::set<Shape> _seen; ///< every shape requested so far

    std::unique_ptr<runtime::Context> _ctx;
    std::vector<Request> _reqs;
    runtime::BatchEvent _batch;
    Tick _start = 0;
    std::uint64_t _requests = 0, _repeats = 0;
};

} // namespace

std::unique_ptr<Workload>
makeChain(std::uint64_t seed)
{
    return std::make_unique<Chain>(seed);
}

} // namespace perfbench
