#include "core/directory.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

Directory::Directory(std::uint32_t num_entries, std::uint32_t ways,
                     std::uint32_t sector_bytes)
    : sector_bytes_(sector_bytes),
      sector_mask_(sector_bytes - 1),
      entries_(ways ? num_entries / ways : 0, ways, floorLog2(sector_bytes))
{
    hmg_assert(num_entries % ways == 0);
    hmg_assert(isPowerOf2(sector_bytes));
}

DirEntry *
Directory::find(Addr addr)
{
    ++lookups_;
    DirEntry *e = entries_.find(sectorOf(addr));
    if (e)
        ++hits_;
    return e;
}

DirEntry *
Directory::allocate(Addr addr, std::optional<DirEntry> *evicted)
{
    const auto placed = entries_.insert(sectorOf(addr), evicted);
    if (placed.inserted) {
        ++allocations_;
        if (placed.evicted)
            ++evictions_;
    }
    return placed.entry;
}

void
Directory::reportStats(StatRecorder &r, const std::string &prefix) const
{
    r.record(prefix + ".lookups", static_cast<double>(lookups_));
    r.record(prefix + ".hits", static_cast<double>(hits_));
    r.record(prefix + ".allocations", static_cast<double>(allocations_));
    r.record(prefix + ".evictions", static_cast<double>(evictions_));
}

} // namespace hmg
