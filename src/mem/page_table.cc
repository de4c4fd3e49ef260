#include "mem/page_table.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

PageTable::PageTable(const SystemConfig &cfg, std::uint32_t lps)
    : cfg_(cfg), page_shift_(floorLog2(cfg.osPageBytes)), memos_(lps)
{
    hmg_assert(lps > 0);
}

PageTable::Homes &
PageTable::memo() const
{
    const std::uint32_t lp = LpDomain::currentLp();
    hmg_assert(lp < memos_.size());
    return memos_[lp].v;
}

GpmId
PageTable::touch(Addr addr, GpmId toucher)
{
    hmg_assert(toucher < cfg_.totalGpms());
    const std::uint64_t page = pageNumber(addr);
    Homes &memo = this->memo();
    if (const GpmId *home = memo.find(page))
        return *home;

    // Where this touch would place the page; a page another LP placed
    // first keeps its home.
    GpmId home = kInvalidGpm;
    switch (cfg_.pagePlacement) {
      case PagePlacement::FirstTouch:
        home = toucher;
        break;
      case PagePlacement::RoundRobin:
        home = static_cast<GpmId>(page % cfg_.totalGpms());
        break;
    }
    {
        const std::lock_guard<std::mutex> lock(mu_);
        home = *placed_.tryEmplace(page, home).first;
    }
    memo.tryEmplace(page, home);
    return home;
}

GpmId
PageTable::knownHome(std::uint64_t page) const
{
    Homes &memo = this->memo();
    if (const GpmId *home = memo.find(page))
        return *home;
    GpmId home = kInvalidGpm;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const GpmId *placed = placed_.find(page);
        if (!placed)
            return kInvalidGpm;
        home = *placed;
    }
    memo.tryEmplace(page, home);
    return home;
}

GpmId
PageTable::homeOf(Addr addr) const
{
    const GpmId home = knownHome(pageNumber(addr));
    if (home == kInvalidGpm)
        hmg_panic("homeOf() on unplaced page %llx",
                  static_cast<unsigned long long>(addr));
    return home;
}

bool
PageTable::isPlaced(Addr addr) const
{
    return knownHome(pageNumber(addr)) != kInvalidGpm;
}

std::size_t
PageTable::pageCount() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return placed_.size();
}

} // namespace hmg
