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
 * checking at the cost of 8 bytes per line.
 *
 * Partitioned (PDES) runs touch this state from several LP threads: a
 * store allocates its version on the issuing LP and the write lands on
 * the home LP. Version allocation is a relaxed atomic counter, and the
 * line map is a ShardedMap, whose shard locks are taken only when LP
 * workers actually run concurrently — serial and deterministic-merge
 * runs pay no synchronization.
 */

#ifndef HMG_MEM_MEMORY_STATE_HH
#define HMG_MEM_MEMORY_STATE_HH

#include <atomic>
#include <cstdint>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace hmg
{

/** Per-line version store modeling DRAM contents. */
class MemoryState
{
  public:
    /** Enable shard locking (TimeWindow runs; off by default). */
    void setConcurrent(bool c) { lines_.setConcurrent(c); }

    /** Allocate a fresh, globally unique store version. */
    Version
    allocateVersion()
    {
        return next_version_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Latest version written to `line_addr` (0 = initial value). */
    Version read(Addr line_addr) const;

    /**
     * Record that `version` reached DRAM at `line_addr`.
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

    std::uint64_t linesWritten() const { return lines_.size(); }
    Version
    latestVersion() const
    {
        return next_version_.load(std::memory_order_relaxed);
    }

    void clear();

  private:
    ShardedMap<Addr, Version> lines_;
    // Relaxed is enough: serial runs see the exact sequence a plain
    // increment gives, and threaded runs need only unique ids.
    std::atomic<Version> next_version_{0};
};

} // namespace hmg

#endif // HMG_MEM_MEMORY_STATE_HH
