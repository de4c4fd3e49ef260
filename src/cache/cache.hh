/**
 * @file
 * Write-through cache model used for both L1 (per SM) and L2 (per GPM).
 *
 * Per the paper's evaluation ("In our evaluation, all caches are
 * write-through"), lines are always clean: stores update any present copy
 * and propagate onward, so eviction never requires a writeback. L1s are
 * software-managed (bulk-invalidated on acquire); L2s are kept coherent
 * by the protocol engines in src/core. This class only implements the
 * storage behaviour — the protocols decide who may cache what.
 */

#ifndef HMG_CACHE_CACHE_HH
#define HMG_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cache/tag_array.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace hmg
{

/** A single write-through cache. */
class Cache
{
  public:
    /**
     * @param capacity_bytes total data capacity
     * @param ways associativity
     * @param line_bytes line size
     * @param write_allocate on a store to an absent line, allocate it
     *        (GPU L2 behaviour); when false, stores to absent lines pass
     *        through without allocation (GPU L1 behaviour)
     */
    Cache(std::uint64_t capacity_bytes, std::uint32_t ways,
          std::uint32_t line_bytes, bool write_allocate);
    /** The same, with the tags carved from `store` (which must outlive
     *  the cache; see TagArray::storageBytes for its share). */
    Cache(std::uint64_t capacity_bytes, std::uint32_t ways,
          std::uint32_t line_bytes, bool write_allocate, TagStore &store);

    /** Result of a load lookup. */
    struct LoadResult
    {
        bool hit;
        Version version;   //!< valid only when hit
    };

    /** Look up a line for a load; counts hit/miss. */
    LoadResult load(Addr line_addr);

    /**
     * Apply a store of `version` to `line_addr`. Updates a present copy
     * in place; allocates on miss when write_allocate is set. Counts
     * store hits/misses. When `mark_dirty` is set the line is flagged
     * dirty (write-back mode).
     *
     * `serialized` selects which order wins when the copy is already
     * present. A writer's own L2 keeps the newer *version id* (a store
     * must not be clobbered by a concurrently filled older value). At a
     * serialization point — the system home, or a GPU home applying a
     * landed write-through — same-line writes are ordered by *arrival*,
     * so the incoming value wins unconditionally; keeping the larger
     * version id there wedges the home copy out of sync with memory
     * whenever two racy writers arrive out of issue order (found by the
     * runtime coherence checker on racy atomics).
     * @return true if the line is (now) present in this cache.
     */
    bool store(Addr line_addr, Version version, bool mark_dirty = false,
               bool serialized = false);

    /**
     * Visit every dirty line, in set-then-way order, and clear its
     * dirty flag (release / kernel-boundary flush in write-back mode).
     * The callback receives a copy of the line as it was. Only lines
     * recorded as turning dirty since the last flush are probed, not
     * the whole array.
     * @return number of lines flushed.
     */
    std::uint64_t flushDirty(const std::function<void(CacheLine)> &fn);

    /** Dirty lines, counted by walking the array (tests). */
    std::uint64_t dirtyLines() const;

    /** Install a line fetched from below (load fill). */
    void fill(Addr line_addr, Version version);

    /** Invalidate a single line. @return true if present. */
    bool invalidateLine(Addr line_addr);

    /** Invalidate all lines in [base, base+bytes). @return lines. */
    std::uint64_t invalidateRange(Addr base, std::uint64_t bytes);

    /**
     * Invalidate [base, base+bytes) and copy the dropped lines into
     * `dropped` (write-back mode needs the dirty victims).
     */
    std::uint64_t invalidateRangeCollect(Addr base, std::uint64_t bytes,
                                         std::vector<CacheLine> &dropped);

    /** Bulk (software-coherence) invalidation. @return lines dropped. */
    std::uint64_t invalidateAll();

    /** Peek without statistics or LRU update. */
    const CacheLine *peek(Addr line_addr) const { return tags_.peek(line_addr); }

    bool contains(Addr line_addr) const { return peek(line_addr) != nullptr; }

    // Statistics.
    std::uint64_t loads() const { return loads_; }
    std::uint64_t loadHits() const { return load_hits_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t storeHits() const { return store_hits_; }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t invalidatedLines() const { return invalidated_lines_; }
    std::uint64_t bulkInvalidations() const { return bulk_invalidations_; }
    std::uint64_t validLines() const { return tags_.validCount(); }

    void reportStats(StatRecorder &r, const std::string &prefix) const;

    TagArray &tags() { return tags_; }
    const TagArray &tags() const { return tags_; }

    /**
     * Observe capacity/conflict evictions of valid lines (sharer
     * downgrades and write-back of dirty victims, Section IV-B). The
     * hook receives a copy of the evicted line.
     */
    void
    setEvictionHook(std::function<void(const CacheLine &)> hook)
    {
        eviction_hook_ = std::move(hook);
    }

  private:
    /** Note that `line` just turned dirty (see dirty_lines_). */
    void recordDirty(Addr line);

    TagArray tags_;
    bool write_allocate_;
    std::function<void(const CacheLine &)> eviction_hook_;

    /**
     * Addresses of lines that turned dirty since the last flush. An
     * entry goes stale when its line is evicted, invalidated or
     * flushed; flushDirty() probes each and skips the stale ones, and a
     * bulk invalidation empties the list. Compacted when it outgrows
     * twice the array, so it stays bounded between flushes.
     */
    std::vector<Addr> dirty_lines_;

    std::uint64_t loads_ = 0;
    std::uint64_t load_hits_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t store_hits_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t invalidated_lines_ = 0;
    std::uint64_t bulk_invalidations_ = 0;
};

} // namespace hmg

#endif // HMG_CACHE_CACHE_HH
