/**
 * @file
 * Span and counter recording for the benchmark's traced run.
 *
 * Spans are recorded only from the benchmark's own code, around each
 * call it makes into a simulator layer: name ("layer.function"),
 * start, end, parent span and op id. They stay in memory and are
 * written once, at exit. With tracing off a Scope costs one branch.
 */

#ifndef DMX_PERFBENCH_SPANS_HH
#define DMX_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** @return CLOCK_MONOTONIC in seconds (the clock run.py shares). */
inline double
monoSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded interval. */
struct Span
{
    const char *name;     ///< static "layer.function" label
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, or -1
    std::int64_t op;      ///< op index, or -1 outside any op
};

/** Process-wide span store and counter table. */
class Tracer
{
  public:
    static Tracer &get();

    bool enabled() const { return _enabled; }
    void enable() { _enabled = true; }

    /** Op id stamped on spans opened from now on (-1: none). */
    void setOp(std::int64_t op) { _op = op; }

    /** Set a named counter read at a layer boundary. */
    void counter(const std::string &name, double value)
    {
        _counters[name] = value;
    }

    /** Add @p value to a named counter. */
    void add(const std::string &name, double value)
    {
        _counters[name] += value;
    }

    /** Write spans and counters to @p path; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    friend class Scope;

    static std::int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    bool _enabled = false;
    std::int64_t _op = -1;
    std::int32_t _open = -1; ///< innermost open span
    std::vector<Span> _spans;
    std::map<std::string, double> _counters;
};

/** RAII span: records [construction, destruction) when tracing is on. */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        Tracer &t = Tracer::get();
        if (!t._enabled)
            return;
        _index = static_cast<std::int32_t>(t._spans.size());
        t._spans.push_back({name, Tracer::nowNs(), 0, t._open, t._op});
        t._open = _index;
    }

    ~Scope()
    {
        if (_index < 0)
            return;
        Tracer &t = Tracer::get();
        Span &s = t._spans[static_cast<std::size_t>(_index)];
        s.end_ns = Tracer::nowNs();
        t._open = s.parent;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::int32_t _index = -1;
};

} // namespace perfbench

#endif // DMX_PERFBENCH_SPANS_HH
