#include "mem/memory_state.hh"

namespace hmg
{

Version
MemoryState::read(Addr line_addr) const
{
    return lines_.with(line_addr, [&](const FlatMap<Addr, Version> &m) {
        const Version *v = m.find(line_addr);
        return v ? *v : Version{0};
    });
}

void
MemoryState::write(Addr line_addr, Version version, bool serialized)
{
    lines_.with(line_addr, [&](FlatMap<Addr, Version> &m) {
        auto [v, inserted] = m.tryEmplace(line_addr, version);
        if (!inserted && (serialized || *v < version))
            *v = version;
    });
}

void
MemoryState::clear()
{
    lines_.clear();
    next_version_.store(0, std::memory_order_relaxed);
}

} // namespace hmg
