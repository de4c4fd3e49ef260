/**
 * @file
 * The coherence directory (Sections IV-A and V-A, Table II).
 *
 * One directory is attached to each GPM's L2. It is a set-associative
 * structure of 12K entries (default), where each entry covers a *sector*
 * of four consecutive cache lines ("each entry covers 4 cache lines") —
 * the coarse-grain tracking optimization evaluated in Section VII-B.
 *
 * Entries have just two stable states, Valid and Invalid (Table I);
 * Invalid is represented by absence. An entry tracks sharers in three
 * domains, the hierarchical scheme of Section V-A extended one tier
 * for multi-node machines:
 *
 *  - `gpmSharers`: local GPM indices within the home GPM's own GPU
 *    (used by every home role, and by NHCC in flat mode where the
 *    whole system is treated as one GPU of M*N GPMs);
 *  - `gpuSharers`: local GPU indices within the home's node, other
 *    than the home's own (node-home and system-home roles);
 *  - `nodeSharers`: node ids other than the home's (system-home role
 *    only; always empty on the paper's single-node machine).
 *
 * For a K-GPM, M-GPU-per-node, N-node system an entry therefore tracks
 * at most (K-1) + (M-1) + (N-1) sharers — 6 bits of sharer vector in
 * the default single-node 4x4 configuration, exactly Section V-A's
 * M + N - 2 and the basis of the paper's 55-bits-per-entry hardware
 * cost estimate (Section VII-C).
 */

#ifndef HMG_CORE_DIRECTORY_HH
#define HMG_CORE_DIRECTORY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cache/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace hmg
{

/** One coherence-directory entry (state Valid while present): 32
 *  bytes, with the 64-bit fields first so nothing is padding. */
struct DirEntry
{
    Addr sector = 0;               //!< sector base address
    std::uint64_t lru = 0;         //!< larger = more recently used
    std::uint32_t stamp = 0;       //!< validity; owned by SetAssoc
    std::uint32_t gpmSharers = 0;  //!< bitmask of local GPM indices
    std::uint32_t gpuSharers = 0;  //!< bitmask of node-local GPU indices
    std::uint32_t nodeSharers = 0; //!< bitmask of node ids

    bool hasSharers() const
    {
        return gpmSharers != 0 || gpuSharers != 0 || nodeSharers != 0;
    }

    void addGpm(std::uint32_t local_gpm) { gpmSharers |= 1u << local_gpm; }
    void addGpu(std::uint32_t local_gpu) { gpuSharers |= 1u << local_gpu; }
    void addNode(NodeId node) { nodeSharers |= 1u << node; }
    void dropGpm(std::uint32_t local_gpm)
    {
        gpmSharers &= ~(1u << local_gpm);
    }
    void dropGpu(std::uint32_t local_gpu)
    {
        gpuSharers &= ~(1u << local_gpu);
    }
    bool hasGpm(std::uint32_t local_gpm) const
    {
        return gpmSharers & (1u << local_gpm);
    }
    bool hasGpu(std::uint32_t local_gpu) const
    {
        return gpuSharers & (1u << local_gpu);
    }
    bool hasNode(NodeId node) const { return nodeSharers & (1u << node); }
    std::uint32_t sharerCount() const
    {
        return static_cast<std::uint32_t>(
            __builtin_popcount(gpmSharers) +
            __builtin_popcount(gpuSharers) +
            __builtin_popcount(nodeSharers));
    }
};
static_assert(sizeof(DirEntry) == 32, "no field of DirEntry is padded");

/**
 * Set-associative sharer-tracking directory for one GPM. Only the LP
 * owning the GPM writes it during a window, so a directory owns its
 * host lines.
 */
class alignas(kHostLineBytes) Directory
{
  public:
    /**
     * @param num_entries total entries (Table II: 12K per GPM)
     * @param ways associativity
     * @param sector_bytes bytes covered per entry (4 lines by default)
     */
    Directory(std::uint32_t num_entries, std::uint32_t ways,
              std::uint32_t sector_bytes);
    /** The same, carved from `store` (which must outlive it). */
    Directory(std::uint32_t num_entries, std::uint32_t ways,
              std::uint32_t sector_bytes, TagStore &store);

    /** Bytes the directory takes from a TagStore. */
    static std::uint64_t storageBytes(std::uint32_t num_entries,
                                      std::uint32_t ways);

    /** Find the entry covering `addr`, refreshing LRU. */
    DirEntry *find(Addr addr);

    /** Stat-neutral, LRU-neutral lookup (checkers / snapshots). */
    const DirEntry *
    peek(Addr addr) const
    {
        return entries_.peek(sectorOf(addr));
    }

    /**
     * Find-or-allocate the entry covering `addr`. On a conflict/capacity
     * eviction the displaced entry (whose sharers must be invalidated —
     * Table I "Replace Dir Entry") is copied to `evicted`, which is
     * emptied otherwise.
     * @return the (possibly recycled) entry, sharer sets preserved when
     *         the sector was already tracked, empty otherwise.
     */
    DirEntry *allocate(Addr addr, std::optional<DirEntry> *evicted = nullptr);

    /** Drop the entry covering `addr` (transition to Invalid). */
    bool remove(Addr addr) { return entries_.erase(sectorOf(addr)); }

    /** Sector base address of `addr`. */
    Addr sectorOf(Addr addr) const { return addr & ~sector_mask_; }

    std::uint32_t sectorBytes() const { return sector_bytes_; }
    std::uint64_t numSets() const { return entries_.numSets(); }
    std::uint32_t ways() const { return entries_.ways(); }
    std::uint64_t validCount() const { return entries_.size(); }

    // Statistics.
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t evictions() const { return evictions_; }

    void reportStats(StatRecorder &r, const std::string &prefix) const;

    /** Visit all valid entries (tests / invariant checks). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        entries_.forEach(fn);
    }

    /** The set-associative core (layout checks in tests). */
    const SetAssoc<DirEntry, &DirEntry::sector> &core() const
    {
        return entries_;
    }

  private:
    std::uint32_t sector_bytes_;
    Addr sector_mask_;
    SetAssoc<DirEntry, &DirEntry::sector> entries_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t evictions_ = 0;
};

static_assert(alignof(Directory) == kHostLineBytes);

} // namespace hmg

#endif // HMG_CORE_DIRECTORY_HH
