/**
 * @file
 * sweep: the closed-loop design-space sweep every figure harness runs.
 * One op is one sys::simulateSystem scenario over the Table I suite.
 *
 * Each pass over the grid visits all 360 cells (6 placements x n_apps
 * {1, 5, 10, 15, 40} x Gen3/4/5 x PerHop/Descriptor x batch {1, 8}) in
 * a seeded order; a seeded quarter of each pass carries a FaultPlan
 * (one fixed plan seed), and each draw picks which of the five apps
 * the scenario runs n_apps copies of, as the figure harnesses do
 * (bench_util's runHomogeneous). A run is a whole number of passes, so
 * every seed runs the same cells, and every scenario input recurs
 * across seeds, so one digest table pins the default seeds.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "apps/benchmarks.hh"
#include "spans.hh"
#include "sys/system.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace dmx;

constexpr sys::Placement placements[] = {
    sys::Placement::AllCpu,        sys::Placement::MultiAxl,
    sys::Placement::IntegratedDrx, sys::Placement::StandaloneDrx,
    sys::Placement::BumpInTheWire, sys::Placement::PcieIntegrated,
};
constexpr const char *placement_names[] = {
    "all-cpu", "multi-axl", "integrated", "standalone", "bitw", "pcie"};
constexpr unsigned app_counts[] = {1, 5, 10, 15, 40};
constexpr pcie::Generation gens[] = {
    pcie::Generation::Gen3, pcie::Generation::Gen4,
    pcie::Generation::Gen5};
constexpr sys::ChainSubmission chains[] = {
    sys::ChainSubmission::PerHop, sys::ChainSubmission::Descriptor};
constexpr unsigned batches[] = {1, 8};

constexpr std::size_t grid_cells = std::size(placements) *
                                   std::size(app_counts) * std::size(gens) *
                                   std::size(chains) * std::size(batches);
constexpr std::size_t faulted_per_pass = grid_cells / 4;
constexpr std::uint64_t plan_seed = 1;

/// Ops per second of --seconds, measured on a 4-core x86 box.
constexpr double ops_per_second = 3000;

struct Scenario
{
    sys::SystemConfig cfg;
    bool faulted = false;
    std::size_t app = 0; ///< suite index of the app run n_apps times
};

fault::FaultSpec
faultSpec()
{
    fault::FaultSpec fs;
    fs.seed = plan_seed;
    fs.flow_stall_prob = 0.005;
    fs.flow_corrupt_prob = 0.02;
    fs.irq_drop_prob = 0.05;
    return fs;
}

bool
finiteNonNegative(double v)
{
    return std::isfinite(v) && v >= 0;
}

class Sweep : public Workload
{
  public:
    explicit Sweep(std::uint64_t seed) : _seed(seed) {}

    void
    setup() override
    {
        Scope s("apps.standardSuite");
        _suite = apps::standardSuite(apps::SuiteParams{});
    }

    std::size_t
    opsFor(double seconds) const override
    {
        return wholePasses(seconds * ops_per_second, grid_cells);
    }

    void
    prepare(std::size_t i) override
    {
        const std::size_t pass = i / grid_cells;
        if (!_pass || *_pass != pass)
            drawPass(pass);
        const std::size_t cell = _order[i % grid_cells];
        std::size_t c = cell;
        Scenario sc;
        sc.cfg.batch = batches[c % std::size(batches)];
        c /= std::size(batches);
        sc.cfg.chain = chains[c % std::size(chains)];
        c /= std::size(chains);
        sc.cfg.gen = gens[c % std::size(gens)];
        c /= std::size(gens);
        sc.cfg.n_apps = app_counts[c % std::size(app_counts)];
        c /= std::size(app_counts);
        sc.cfg.placement = placements[c];
        sc.faulted = _faulted[i % grid_cells];
        sc.app = _app[i % grid_cells];
        _sc = sc;
        _plan.reset();
        if (sc.faulted) {
            _plan.emplace(faultSpec());
            _sc.cfg.fault_plan = &*_plan;
        }
    }

    void
    run(std::size_t) override
    {
        Scope s("sys.simulateSystem");
        _stats = sys::simulateSystem(_sc.cfg, {_suite[_sc.app]});
    }

    OpResult
    check(std::size_t, bool flip) override
    {
        sys::RunStats st = _stats;
        if (flip)
            st.pcie_bytes ^= 1;
        const unsigned n = _sc.cfg.n_apps;
        OpResult r;
        r.sim_requests = static_cast<double>(n) * _sc.cfg.requests_per_app;
        r.sim_makespan_ms = st.makespan_ms;
        r.latencies_ms = st.per_app_p99_latency_ms;

        if (st.per_app_latency_ms.size() != n ||
            st.per_app_p99_latency_ms.size() != n)
            r.error = "per-app vectors do not have n_apps entries";
        else if (st.makespan_ticks == 0 || !(st.makespan_ms > 0))
            r.error = "empty makespan";
        else if (!(st.avg_latency_ms > 0) || st.kernel_ticks == 0)
            r.error = "no request latency";
        else if (!_sc.faulted &&
                 (st.flow_retries != 0 || st.dropped_irqs != 0))
            r.error = "fault recovery without a fault plan";
        for (double v : st.per_app_p99_latency_ms)
            if (r.error.empty() && !finiteNonNegative(v))
                r.error = "bad per-app p99 latency";

        Digest d;
        d.f64(st.avg_latency_ms);
        d.f64(st.avg_throughput_rps);
        d.f64(st.bottleneck_stage_ms);
        d.f64(st.makespan_ms);
        for (double v : {st.energy.host_joules, st.energy.accel_joules,
                         st.energy.drx_joules, st.energy.pcie_joules})
            d.f64(v);
        for (std::uint64_t v :
             {st.interrupts, st.polls, st.pcie_bytes, st.flow_retries,
              st.dropped_irqs, st.kernel_ticks, st.restructure_ticks,
              st.movement_ticks, st.makespan_ticks, st.shed_requests,
              st.deadline_misses, st.queue_overflows,
              st.backpressure_stalls, st.peak_active_flows,
              st.driver_round_trips, st.descriptor_fetches, st.doorbells,
              st.notifications_suppressed, st.coalesced_bursts})
            d.u64(v);
        for (double v : st.per_app_latency_ms)
            d.f64(v);
        for (double v : st.per_app_p99_latency_ms)
            d.f64(v);
        r.digest = d.value();

        if (Tracer::get().enabled()) {
            Tracer &t = Tracer::get();
            t.add("sys.sim_requests", r.sim_requests);
            t.add("pcie.bytes", static_cast<double>(st.pcie_bytes));
            t.add("pcie.doorbells", static_cast<double>(st.doorbells));
            t.add("pcie.descriptor_fetches",
                  static_cast<double>(st.descriptor_fetches));
            _peak_flows = std::max(_peak_flows, st.peak_active_flows);
            t.add("driver.interrupts", static_cast<double>(st.interrupts));
            t.add("driver.polls", static_cast<double>(st.polls));
            t.add("driver.suppressed",
                  static_cast<double>(st.notifications_suppressed));
            t.add("driver.round_trips",
                  static_cast<double>(st.driver_round_trips));
            t.add("robust.shed", static_cast<double>(st.shed_requests));
            t.add("robust.backpressure_stalls",
                  static_cast<double>(st.backpressure_stalls));
            t.add("fault.retries", static_cast<double>(st.flow_retries));
        }
        return r;
    }

    std::string
    describe(std::size_t) const override
    {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "sweep placement=%s n_apps=%u gen=%d chain=%d "
                      "batch=%u requests=%u faulted=%d app=%s",
                      placement_names[static_cast<int>(_sc.cfg.placement)],
                      _sc.cfg.n_apps, 3 + static_cast<int>(_sc.cfg.gen),
                      static_cast<int>(_sc.cfg.chain), _sc.cfg.batch,
                      _sc.cfg.requests_per_app,
                      _sc.faulted, _suite[_sc.app].name.c_str());
        return buf;
    }

    void
    publishCounters() override
    {
        Tracer::get().counter("pcie.peak_active_flows",
                              static_cast<double>(_peak_flows));
    }

  private:
    /** Seeded visiting order and fault assignment of grid pass @p p. */
    void
    drawPass(std::size_t p)
    {
        SplitMix rng(mixSeed(_seed, p));
        _order.resize(grid_cells);
        for (std::size_t c = 0; c < grid_cells; ++c)
            _order[c] = c;
        for (std::size_t c = grid_cells - 1; c > 0; --c)
            std::swap(_order[c], _order[rng.below(c + 1)]);
        _app.resize(grid_cells);
        for (auto &a : _app)
            a = rng.below(_suite.size());
        _faulted.assign(grid_cells, false);
        for (std::size_t k = 0; k < faulted_per_pass;) {
            const std::size_t pos = rng.below(grid_cells);
            if (_faulted[pos])
                continue;
            _faulted[pos] = true;
            ++k;
        }
        _pass = p;
    }

    std::uint64_t _seed;
    std::vector<sys::AppModel> _suite;
    std::optional<std::size_t> _pass;
    std::vector<std::size_t> _order;
    std::vector<bool> _faulted;
    std::vector<std::size_t> _app;

    Scenario _sc;
    std::optional<fault::FaultPlan> _plan;
    sys::RunStats _stats;
    std::uint64_t _peak_flows = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSweep(std::uint64_t seed)
{
    return std::make_unique<Sweep>(seed);
}

} // namespace perfbench
