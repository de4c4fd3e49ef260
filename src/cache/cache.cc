#include "cache/cache.hh"

#include <algorithm>
#include <optional>
#include <vector>

namespace hmg
{

Cache::Cache(std::uint64_t capacity_bytes, std::uint32_t ways,
             std::uint32_t line_bytes, bool write_allocate)
    : tags_(TagArray::fromCapacity(capacity_bytes, ways, line_bytes)),
      write_allocate_(write_allocate)
{
}

Cache::Cache(std::uint64_t capacity_bytes, std::uint32_t ways,
             std::uint32_t line_bytes, bool write_allocate, TagStore &store)
    : tags_(TagArray::fromCapacity(capacity_bytes, ways, line_bytes, store)),
      write_allocate_(write_allocate)
{
}

Cache::LoadResult
Cache::load(Addr line_addr)
{
    ++loads_;
    if (CacheLine *line = tags_.lookup(line_addr)) {
        ++load_hits_;
        return {true, line->version};
    }
    return {false, 0};
}

bool
Cache::store(Addr line_addr, Version version, bool mark_dirty,
             bool serialized)
{
    ++stores_;
    if (CacheLine *line = tags_.lookup(line_addr)) {
        ++store_hits_;
        if (serialized || line->version < version)
            line->version = version;
        if (mark_dirty && !line->dirty) {
            line->dirty = true;
            recordDirty(line_addr);
        }
        return true;
    }
    if (!write_allocate_)
        return false;
    std::optional<CacheLine> evicted;
    CacheLine *line = tags_.insert(line_addr, &evicted);
    if (evicted) {
        ++evictions_;
        if (eviction_hook_)
            eviction_hook_(*evicted);
    }
    line->version = version;
    line->dirty = mark_dirty;
    if (mark_dirty)
        recordDirty(line_addr);
    return true;
}

void
Cache::recordDirty(Addr line)
{
    if (dirty_lines_.size() >= 2 * tags_.numSets() * tags_.ways()) {
        // Keep one entry per line still dirty (a line turns dirty again
        // each time it is refilled and stored to between flushes).
        std::vector<Addr> live;
        for (Addr a : dirty_lines_)
            if (const CacheLine *l = tags_.peek(a); l && l->dirty)
                live.push_back(a);
        std::sort(live.begin(), live.end());
        live.erase(std::unique(live.begin(), live.end()), live.end());
        dirty_lines_ = std::move(live);
    }
    dirty_lines_.push_back(line);
}

std::uint64_t
Cache::flushDirty(const std::function<void(CacheLine)> &fn)
{
    // Array position is set-then-way order, the order of a full walk.
    std::vector<CacheLine *> live;
    for (Addr a : dirty_lines_)
        if (CacheLine *l = tags_.peek(a); l && l->dirty)
            live.push_back(l);
    dirty_lines_.clear();
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    // Collect first: the callback may touch the cache.
    std::vector<CacheLine> dirty;
    dirty.reserve(live.size());
    for (CacheLine *l : live) {
        dirty.push_back(*l);
        l->dirty = false;
    }
    for (auto &line : dirty)
        fn(line);
    return dirty.size();
}

std::uint64_t
Cache::dirtyLines() const
{
    std::uint64_t n = 0;
    tags_.forEachValid([&](const CacheLine &line) {
        if (line.dirty)
            ++n;
    });
    return n;
}

Version
Cache::fill(Addr line_addr, Version version)
{
    ++fills_;
    std::optional<CacheLine> evicted;
    CacheLine *line = tags_.insert(line_addr, &evicted);
    if (evicted) {
        ++evictions_;
        if (eviction_hook_)
            eviction_hook_(*evicted);
    }
    // A racing store may have left a newer version in place; keep it.
    if (line->version < version)
        line->version = version;
    return line->version;
}

bool
Cache::invalidateLine(Addr line_addr)
{
    if (tags_.invalidate(line_addr)) {
        ++invalidated_lines_;
        return true;
    }
    return false;
}

std::uint64_t
Cache::invalidateRange(Addr base, std::uint64_t bytes)
{
    std::uint64_t n = tags_.invalidateRange(base, bytes);
    invalidated_lines_ += n;
    return n;
}

std::uint64_t
Cache::invalidateRangeCollect(Addr base, std::uint64_t bytes,
                              std::vector<CacheLine> &dropped)
{
    std::uint64_t n = 0;
    for (Addr a = base; a < base + bytes; a += tags_.lineBytes()) {
        CacheLine line;
        if (tags_.invalidate(a, &line)) {
            dropped.push_back(line);
            ++invalidated_lines_;
            ++n;
        }
    }
    return n;
}

std::uint64_t
Cache::invalidateAll()
{
    ++bulk_invalidations_;
    dirty_lines_.clear();
    std::uint64_t n = tags_.invalidateAll();
    invalidated_lines_ += n;
    return n;
}

void
Cache::reportStats(StatRecorder &r, const std::string &prefix) const
{
    r.record(prefix + ".loads", static_cast<double>(loads_));
    r.record(prefix + ".load_hits", static_cast<double>(load_hits_));
    r.record(prefix + ".stores", static_cast<double>(stores_));
    r.record(prefix + ".store_hits", static_cast<double>(store_hits_));
    r.record(prefix + ".fills", static_cast<double>(fills_));
    r.record(prefix + ".evictions", static_cast<double>(evictions_));
    r.record(prefix + ".invalidated_lines",
             static_cast<double>(invalidated_lines_));
    r.record(prefix + ".bulk_invalidations",
             static_cast<double>(bulk_invalidations_));
}

} // namespace hmg
