/**
 * @file
 * NUMA page placement.
 *
 * Maps each 2 MB OS page to the GPM whose DRAM physically holds it (its
 * system home). The default first-touch policy — the page lands on the
 * GPM of the first accessor — matches the policy the paper inherits from
 * MCM-GPU and NUMA-aware multi-GPU work (Section VI: "Our simulator
 * inherits the contiguous CTA scheduling and first-touch page placement
 * policies from prior work").
 *
 * In partitioned (PDES) runs any LP may touch any page, so the map is a
 * ShardedMap, whose shard locks are taken only when LP workers actually
 * run concurrently. First-touch placement in a
 * relaxed TimeWindow run may resolve a cross-LP first-touch race either
 * way; that is an accepted model variation (the deterministic modes are
 * unaffected — they never lock).
 */

#ifndef HMG_MEM_PAGE_TABLE_HH
#define HMG_MEM_PAGE_TABLE_HH

#include <cstdint>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/types.hh"

namespace hmg
{

/** Page -> home-GPM map with pluggable placement policy. */
class PageTable
{
  public:
    explicit PageTable(const SystemConfig &cfg);

    /** Enable shard locking (TimeWindow runs; off by default). */
    void setConcurrent(bool c) { home_.setConcurrent(c); }

    /**
     * Record an access to the page containing `addr` by GPM `toucher`,
     * placing the page if this is its first touch.
     * @return the page's home GPM.
     */
    GpmId touch(Addr addr, GpmId toucher);

    /** Home GPM of a page that must already be placed. */
    GpmId homeOf(Addr addr) const;

    /** True once the page containing `addr` has been placed. */
    bool isPlaced(Addr addr) const;

    /** Number of placed pages. */
    std::size_t pageCount() const { return home_.size(); }

    void clear() { home_.clear(); }

  private:
    std::uint64_t pageNumber(Addr a) const { return a >> page_shift_; }

    const SystemConfig &cfg_;
    unsigned page_shift_;
    ShardedMap<std::uint64_t, GpmId> home_;
};

} // namespace hmg

#endif // HMG_MEM_PAGE_TABLE_HH
