#include "mem/page_table.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

PageTable::PageTable(const SystemConfig &cfg)
    : cfg_(cfg), page_shift_(floorLog2(cfg.osPageBytes))
{
}

GpmId
PageTable::touch(Addr addr, GpmId toucher)
{
    hmg_assert(toucher < cfg_.totalGpms());
    const std::uint64_t page = pageNumber(addr);
    return home_.with(page, [&](FlatMap<std::uint64_t, GpmId> &m) {
        if (const GpmId *placed = m.find(page))
            return *placed;

        GpmId home = kInvalidGpm;
        switch (cfg_.pagePlacement) {
          case PagePlacement::FirstTouch:
            home = toucher;
            break;
          case PagePlacement::RoundRobin:
            home = static_cast<GpmId>(page % cfg_.totalGpms());
            break;
          case PagePlacement::LocalOnly:
            home = 0;
            break;
        }
        m.tryEmplace(page, home);
        return home;
    });
}

GpmId
PageTable::homeOf(Addr addr) const
{
    const std::uint64_t page = pageNumber(addr);
    return home_.with(page, [&](const FlatMap<std::uint64_t, GpmId> &m) {
        const GpmId *home = m.find(page);
        if (!home)
            hmg_panic("homeOf() on unplaced page %llx",
                      static_cast<unsigned long long>(addr));
        return *home;
    });
}

bool
PageTable::isPlaced(Addr addr) const
{
    const std::uint64_t page = pageNumber(addr);
    return home_.with(page, [&](const FlatMap<std::uint64_t, GpmId> &m) {
        return m.find(page) != nullptr;
    });
}

} // namespace hmg
