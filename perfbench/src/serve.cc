/**
 * @file
 * serve: open-loop serving in simulated time. One op is one
 * serve::simulateServing point: 4 KiB requests on 4 devices.
 *
 * Each pass visits all 108 grid points (steady / flash-crowd /
 * heavy-tail trace x load {0.8, 1.0, 1.5} x faults {0, 0.02} x plain /
 * hedged / tail arm x batch {1, 8}) in a seeded order, and a run is a
 * whole number of passes; each point's engine seed comes from a pool of
 * four, so every point input recurs across run seeds and one digest
 * table pins the default seeds.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "serve/serve.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace dmx;

constexpr serve::TraceShape shapes[] = {serve::TraceShape::Steady,
                                        serve::TraceShape::FlashCrowd,
                                        serve::TraceShape::HeavyTail};
constexpr const char *shape_names[] = {"steady", "flash-crowd",
                                       "heavy-tail"};
constexpr double loads[] = {0.8, 1.0, 1.5};
constexpr double fault_rates[] = {0.0, 0.02};
enum class Arm { Plain, Hedged, Tail };
constexpr Arm arms[] = {Arm::Plain, Arm::Hedged, Arm::Tail};
constexpr const char *arm_names[] = {"plain", "hedged", "tail"};
constexpr unsigned batches[] = {1, 8};

constexpr std::size_t grid_points = std::size(shapes) * std::size(loads) *
                                    std::size(fault_rates) *
                                    std::size(arms) * std::size(batches);
constexpr std::uint64_t engine_seed_pool = 4;
constexpr unsigned requests_per_point = 2000;
constexpr unsigned devices = 4;
constexpr std::uint64_t request_bytes = 4096;

/// Ops per second of --seconds, measured on a 4-core x86 box.
constexpr double ops_per_second = 36;

struct Point
{
    std::size_t shape = 0, load = 0, fault = 0, arm = 0, batch = 0;
    std::uint64_t engine_seed = 1;
};

/** @return the serving config of @p p (arms as in tools/stress_serving). */
serve::ServeConfig
makeConfig(const Point &p)
{
    serve::ServeConfig cfg;
    cfg.overload.requests = requests_per_point;
    cfg.overload.devices = devices;
    cfg.overload.seed = p.engine_seed;
    cfg.overload.batch = batches[p.batch];
    cfg.overload.request_bytes = request_bytes;
    cfg.overload.load = loads[p.load];
    cfg.overload.fault_rate = fault_rates[p.fault];
    cfg.enabled = true;
    cfg.trace.shape = shapes[p.shape];
    if (arms[p.arm] != Arm::Plain)
        cfg.hedge.enabled = true;
    if (arms[p.arm] == Arm::Tail) {
        cfg.budget.enabled = true;
        cfg.budget.per_request = 0.5;
        cfg.brownout.enabled = true;
    }
    return cfg;
}

/** @return "" when @p c conserves its offered requests. */
std::string
checkClass(const serve::ClassStats &c, const char *name)
{
    if (c.offered != c.completed + c.shed + c.failed + c.timed_out)
        return std::string(name) +
               ": offered != completed + shed + failed + timed_out";
    if (c.latency.count != c.completed)
        return std::string(name) + ": latency samples != completed";
    if (!std::isfinite(c.latency.p99_ms) || c.latency.p99_ms < 0)
        return std::string(name) + ": bad p99 latency";
    return {};
}

/** @return "" when the point-wide invariants of @p st hold. */
std::string
checkPoint(const serve::ServeStats &st, Arm arm)
{
    const sys::OverloadStats &b = st.base;
    if (b.offered != requests_per_point ||
        st.latency_sensitive.offered + st.batch.offered != b.offered)
        return "offered requests do not add up";
    if (b.offered != b.completed + b.shed + b.failed + b.timed_out)
        return "offered != completed + shed + failed + timed_out";
    if (st.hedges_won > st.hedges_issued)
        return "more hedges won than issued";
    if (arm == Arm::Plain && st.hedges_issued)
        return "plain arm issued hedges";
    if (st.total_attempts < b.completed)
        return "fewer attempts than completions";
    if (!(b.makespan_ms > 0))
        return "empty makespan";
    return {};
}

class Serve : public Workload
{
  public:
    explicit Serve(std::uint64_t seed) : _seed(seed) {}

    void setup() override {}

    std::size_t
    opsFor(double seconds) const override
    {
        return wholePasses(seconds * ops_per_second, grid_points);
    }

    void
    prepare(std::size_t i) override
    {
        const std::size_t pass = i / grid_points;
        if (!_pass || *_pass != pass)
            drawPass(pass);
        std::size_t c = _order[i % grid_points];
        Point p;
        p.batch = c % std::size(batches);
        c /= std::size(batches);
        p.arm = c % std::size(arms);
        c /= std::size(arms);
        p.fault = c % std::size(fault_rates);
        c /= std::size(fault_rates);
        p.load = c % std::size(loads);
        c /= std::size(loads);
        p.shape = c;
        p.engine_seed = _engine_seed[i % grid_points];
        _point = p;
        _cfg = makeConfig(p);
    }

    void
    run(std::size_t) override
    {
        Scope s("serve.simulateServing");
        _stats = serve::simulateServing(_cfg);
    }

    OpResult
    check(std::size_t, bool flip) override
    {
        serve::ServeStats st = _stats;
        if (flip)
            st.total_attempts ^= 1;
        const sys::OverloadStats &b = st.base;
        const serve::ClassStats &ls = st.latency_sensitive;
        const serve::ClassStats &bt = st.batch;
        OpResult r;
        r.sim_requests = static_cast<double>(b.offered);
        r.sim_makespan_ms = b.makespan_ms;
        if (ls.completed)
            r.latencies_ms.push_back(ls.latency.p99_ms);
        if (bt.completed)
            r.latencies_ms.push_back(bt.latency.p99_ms);

        r.error = checkClass(ls, "latency-sensitive");
        if (r.error.empty())
            r.error = checkClass(bt, "batch");
        if (r.error.empty())
            r.error = checkPoint(st, arms[_point.arm]);

        Digest d;
        for (double v : serve::flatten(st))
            d.f64(v);
        r.digest = d.value();

        if (Tracer::get().enabled()) {
            Tracer &t = Tracer::get();
            t.add("serve.offered", static_cast<double>(b.offered));
            t.add("serve.completed", static_cast<double>(b.completed));
            t.add("serve.attempts", static_cast<double>(st.total_attempts));
            t.add("serve.hedges_issued",
                  static_cast<double>(st.hedges_issued));
            t.add("serve.hedges_won", static_cast<double>(st.hedges_won));
            t.add("robust.shed", static_cast<double>(b.shed));
            t.add("robust.backpressure_stalls",
                  static_cast<double>(b.backpressure_stalls));
            t.add("robust.breaker_opens",
                  static_cast<double>(b.breaker_opens));
            t.add("fault.retries", static_cast<double>(b.retries));
            t.add("fault.watchdog_timeouts",
                  static_cast<double>(b.watchdog_timeouts));
            t.add("driver.interrupts",
                  static_cast<double>(b.irq_notifications));
            t.add("driver.suppressed", static_cast<double>(b.irq_suppressed));
        }
        return r;
    }

    std::string
    describe(std::size_t) const override
    {
        const Point &p = _point;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "serve shape=%s load=%.2f faults=%.2f arm=%s "
                      "batch=%u requests=%u devices=%u bytes=%llu "
                      "engine_seed=%llu",
                      shape_names[p.shape], loads[p.load],
                      fault_rates[p.fault], arm_names[p.arm],
                      batches[p.batch], requests_per_point, devices,
                      static_cast<unsigned long long>(request_bytes),
                      static_cast<unsigned long long>(p.engine_seed));
        return buf;
    }

    void publishCounters() override {}

  private:
    /** Seeded visiting order and engine seeds of grid pass @p p. */
    void
    drawPass(std::size_t p)
    {
        SplitMix rng(mixSeed(_seed, p));
        _order.resize(grid_points);
        for (std::size_t c = 0; c < grid_points; ++c)
            _order[c] = c;
        for (std::size_t c = grid_points - 1; c > 0; --c)
            std::swap(_order[c], _order[rng.below(c + 1)]);
        _engine_seed.resize(grid_points);
        for (auto &s : _engine_seed)
            s = 1 + rng.below(engine_seed_pool);
        _pass = p;
    }

    std::uint64_t _seed;
    std::optional<std::size_t> _pass;
    std::vector<std::size_t> _order;
    std::vector<std::uint64_t> _engine_seed;

    Point _point;
    serve::ServeConfig _cfg;
    serve::ServeStats _stats;
};

} // namespace

std::unique_ptr<Workload>
makeServe(std::uint64_t seed)
{
    return std::make_unique<Serve>(seed);
}

} // namespace perfbench
