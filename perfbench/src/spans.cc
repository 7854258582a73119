#include "spans.hh"

#include <cstdio>

namespace perfbench
{

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Line format, tab-separated:
    //   span <index> <parent> <op> <name> <start_ns> <end_ns>
    //   counter <name> <value>
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(f, "span\t%zu\t%d\t%lld\t%s\t%lld\t%lld\n", i,
                     s.parent, static_cast<long long>(s.op), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    for (const auto &[name, value] : _counters)
        std::fprintf(f, "counter\t%s\t%.17g\n", name.c_str(), value);
    return std::fclose(f) == 0;
}

} // namespace perfbench
