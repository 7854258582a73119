#include "workloads.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

std::unique_ptr<Workload> makeSweep(std::uint64_t seed);
std::unique_ptr<Workload> makeChain(std::uint64_t seed);
std::unique_ptr<Workload> makeServe(std::uint64_t seed);

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    SplitMix a(seed);
    SplitMix b(a.next() ^ (stream * 0xd1342543de82ef95ull));
    return b.next();
}

std::size_t
wholePasses(double ops, std::size_t pass)
{
    const double passes = std::round(ops / static_cast<double>(pass));
    return std::max<std::size_t>(1, static_cast<std::size_t>(passes)) * pass;
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *c = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        _h ^= c[i];
        _h *= 0x100000001b3ull;
    }
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "sweep")
        return makeSweep(seed);
    if (name == "chain")
        return makeChain(seed);
    if (name == "serve")
        return makeServe(seed);
    return nullptr;
}

} // namespace perfbench
