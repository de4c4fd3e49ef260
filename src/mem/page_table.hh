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
 * In partitioned (PDES) runs any LP may touch any page. Placement is
 * write-once, so each LP keeps a memo of the homes it has looked up, on
 * host lines of its own, and answers touch(), homeOf() and isPlaced()
 * from it without a lock. Only a memo miss takes the one mutex over the
 * placement map. First-touch placement in a relaxed TimeWindow run may
 * resolve a cross-LP first-touch race either way; that is an accepted
 * model variation (the deterministic modes run on one thread).
 */

#ifndef HMG_MEM_PAGE_TABLE_HH
#define HMG_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/types.hh"
#include "sim/lp.hh"

namespace hmg
{

/** Page -> home-GPM map with pluggable placement policy. */
class PageTable
{
  public:
    /** @param lps one memo per LP of the run (1 when serial) */
    explicit PageTable(const SystemConfig &cfg, std::uint32_t lps = 1);

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
    std::size_t pageCount() const;

  private:
    using Homes = FlatMap<std::uint64_t, GpmId>;

    std::uint64_t pageNumber(Addr a) const { return a >> page_shift_; }

    /** The running LP's memo. */
    Homes &memo() const;

    /** The home of `page`, or kInvalidGpm while it is unplaced. */
    GpmId knownHome(std::uint64_t page) const;

    const SystemConfig &cfg_;
    unsigned page_shift_;

    /** Guards placed_. */
    mutable std::mutex mu_;
    Homes placed_;

    /** Homes each LP has looked up; a slot is touched only by its LP. */
    mutable std::vector<LpSlot<Homes>> memos_;
};

} // namespace hmg

#endif // HMG_MEM_PAGE_TABLE_HH
