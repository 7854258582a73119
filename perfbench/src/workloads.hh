/**
 * @file
 * The benchmark's three workloads (see ../README.md):
 *
 *  - sweep: closed-loop design-space sweep, one sys::simulateSystem
 *           scenario per op;
 *  - chain: functional cross-domain chains with real bytes through
 *           runtime::Platform, one round of 8 requests per op;
 *  - serve: open-loop serving, one serve::simulateServing point per op.
 *
 * Every input is drawn from the workload seed by the benchmark's own
 * generator; the simulator only ever sees the generated inputs.
 */

#ifndef DMX_PERFBENCH_WORKLOADS_HH
#define DMX_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** SplitMix64: the benchmark's input generator (independent of the
 *  simulator's own Rng, so a simulator change cannot move inputs). */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : _s(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (_s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** @return uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** @return uniform double in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    std::uint64_t _s;
};

/** @return a seed for stream @p stream of run seed @p seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * @return the whole number of grid passes of @p pass ops nearest to
 * @p ops (at least one), as an op count: every seed then runs each grid
 * cell equally often, so the seed changes only the order and the draws
 * within a cell, never the mix of cells.
 */
std::size_t wholePasses(double ops, std::size_t pass);

/** FNV-1a 64-bit hash, fed field by field. */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/** What the checker concluded about one op (all outside op timing). */
struct OpResult
{
    /// Hash of every simulated result of the op.
    std::uint64_t digest = 0;
    /// First invariant or output-check violation; empty when none.
    std::string error;

    double sim_requests = 0;    ///< simulated requests settled
    double sim_makespan_ms = 0; ///< simulated makespan of the op
    /// Simulated latencies the workload's p99 is taken over.
    std::vector<double> latencies_ms;
};

/** One workload: set-up, then ops driven one at a time. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build what every op needs (timed as part of setup_s). */
    virtual void setup() = 0;

    /** @return ops in a run measuring about @p seconds (>= 100). */
    virtual std::size_t opsFor(double seconds) const = 0;

    /** Draw op @p i's input from the seed (untimed). */
    virtual void prepare(std::size_t i) = 0;

    /** Run op @p i (the timed part). */
    virtual void run(std::size_t i) = 0;

    /**
     * Check op @p i's outputs (untimed). @p flip corrupts one output
     * byte before the comparison: the checker's own self-test.
     */
    virtual OpResult check(std::size_t i, bool flip) = 0;

    /** @return a canonical text form of op @p i's prepared input. */
    virtual std::string describe(std::size_t i) const = 0;

    /** Publish the layers' public counters to the tracer (at exit). */
    virtual void publishCounters() = 0;
};

/** @return the workload @p name seeded with @p seed, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // DMX_PERFBENCH_WORKLOADS_HH
