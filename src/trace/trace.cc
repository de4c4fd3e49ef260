#include "trace/trace.hh"

#include "common/flat_map.hh"

namespace hmg::trace
{

std::uint64_t
Trace::memOps() const
{
    std::uint64_t n = 0;
    for (const auto &k : kernels)
        n += k.memOps();
    return n;
}

std::uint64_t
Trace::footprintBytes(std::uint32_t line_bytes) const
{
    FlatMap<Addr, bool> lines;
    for (const auto &k : kernels)
        for (const auto &cta : k.ctas)
            for (const auto &w : cta.warps)
                for (const auto &op : w.ops)
                    if (op.type == MemOpType::Load ||
                        op.type == MemOpType::Store ||
                        op.type == MemOpType::Atomic)
                        lines.tryEmplace(op.addr / line_bytes);
    return static_cast<std::uint64_t>(lines.size()) * line_bytes;
}

std::uint64_t
Trace::maxConcurrentWarps() const
{
    std::uint64_t widest = 0;
    for (const auto &k : kernels) {
        std::uint64_t warps = 0;
        for (const auto &cta : k.ctas)
            warps += cta.warps.size();
        if (warps > widest)
            widest = warps;
    }
    return widest;
}

} // namespace hmg::trace
