/**
 * @file
 * Authoritative memory contents for the coherence-correctness oracle.
 *
 * The simulator does not carry real data; instead every dynamic store is
 * assigned a globally unique, monotonically increasing *version*. DRAM
 * and every cache line remember the version they hold, and every load
 * reports the version it observed. Memory-model conformance tests then
 * check observed versions against the scoped release/acquire ordering
 * the NVIDIA PTX model requires. This gives full-value-equivalent
 * checking at the cost of 31 bits per cache line (cache/tag_array.hh).
 * A run therefore allocates fewer than 2^31 versions: the allocation
 * that would hand out 2^31 stops the run with a fatal error. An
 * operation takes at most one version, and the largest Table III trace
 * at scale 1 (hpgmg) has 294,960 operations, so the limit is about
 * 7,000 times any scale-1 run.
 *
 * Partitioned (PDES) runs touch this state from several LP threads: a
 * store allocates its version on the issuing LP, and the version lands
 * at the line's system home. Version allocation is one relaxed atomic
 * counter. A line's version is read and written only at its system
 * home (core/home_chain.cc), so only the LP owning that home touches
 * it, and the lines live in one partition per LP, each on host lines
 * of its own: inside a window an LP reads and writes its own partition
 * and takes no lock. A read made outside any window (set-up, after
 * run(), tests) consults every partition.
 */

#ifndef HMG_MEM_MEMORY_STATE_HH
#define HMG_MEM_MEMORY_STATE_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "sim/lp.hh"

namespace hmg
{

/** Per-line version store modeling DRAM contents. */
class MemoryState
{
  public:
    /** The first version a cache line cannot hold. */
    static constexpr Version kVersionLimit = Version{1} << kVersionBits;

    /**
     * @param lps one partition per LP of the run (1 when serial)
     * @param first_version the first version allocateVersion() hands
     *        out (tests start near kVersionLimit); at least 1
     */
    explicit MemoryState(std::uint32_t lps = 1, Version first_version = 1);

    /** Allocate a fresh, globally unique store version, below
     *  kVersionLimit; fatal when the run has used them all. */
    Version
    allocateVersion()
    {
        const Version v =
            next_version_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (v >= kVersionLimit) [[unlikely]]
            hmg_fatal("store version %llu does not fit the 31 bits a "
                      "cache line keeps: a run allocates at most 2^31 - 1 "
                      "store versions",
                      static_cast<unsigned long long>(v));
        return v;
    }

    /** Latest version written to `line_addr` (0 = initial value). */
    Version read(Addr line_addr) const;

    /**
     * Record that `version` reached DRAM at `line_addr`, in the running
     * LP's partition.
     *
     * `serialized` (the default) is for write-throughs and atomics
     * landing at the system home: arrival order there *is* the
     * coherence order, so the incoming version wins unconditionally
     * even when its id is numerically smaller than the resident one
     * (two L2s racing to the home may land out of issue order). This
     * mirrors the `serialized` mode of Cache::store so the home L2 and
     * DRAM never diverge.
     *
     * Pass `serialized = false` for write-back flushes: a dirty victim
     * was coherence-ordered when it was written locally, not when its
     * flush arrives, so a late flush must not clobber a newer write
     * that already landed (e.g. the racing store whose invalidation
     * dislodged the dirty copy).
     */
    void write(Addr line_addr, Version version, bool serialized = true);

    /** Lines written, over every partition. */
    std::uint64_t linesWritten() const;

    Version
    latestVersion() const
    {
        return next_version_.load(std::memory_order_relaxed);
    }

  private:
    using Lines = FlatMap<Addr, Version>;

    /** The running LP: the index of the partition it owns. */
    std::uint32_t runningLp() const;

    std::vector<LpSlot<Lines>> parts_;
    // Relaxed is enough: serial runs see the exact sequence a plain
    // increment gives, and threaded runs need only unique ids.
    std::atomic<Version> next_version_{0};
};

} // namespace hmg

#endif // HMG_MEM_MEMORY_STATE_HH
