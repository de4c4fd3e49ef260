#include "mem/memory_state.hh"

#include "common/log.hh"
#include "sim/engine.hh"

namespace hmg
{

MemoryState::MemoryState(std::uint32_t lps) : parts_(lps)
{
    hmg_assert(lps > 0);
}

std::uint32_t
MemoryState::runningLp() const
{
    const std::uint32_t lp = LpDomain::currentLp();
    hmg_assert(lp < parts_.size());
    return lp;
}

Version
MemoryState::read(Addr line_addr) const
{
    // Inside a window only the home's LP reads the line, and it wrote
    // it into its own partition.
    if (Engine::current()) {
        const Version *v = parts_[runningLp()].v.find(line_addr);
        return v ? *v : Version{0};
    }
    for (const LpSlot<Lines> &p : parts_)
        if (const Version *v = p.v.find(line_addr))
            return *v;
    return 0;
}

void
MemoryState::write(Addr line_addr, Version version, bool serialized)
{
    auto [v, inserted] =
        parts_[runningLp()].v.tryEmplace(line_addr, version);
    if (!inserted && (serialized || *v < version))
        *v = version;
}

std::uint64_t
MemoryState::linesWritten() const
{
    std::uint64_t n = 0;
    for (const LpSlot<Lines> &p : parts_)
        n += p.v.size();
    return n;
}

} // namespace hmg
