/**
 * @file
 * Set-associative cache tag array with true-LRU replacement, used by
 * the L1 and L2 caches. The set mechanics live in cache/set_assoc.hh,
 * which the coherence directory shares. Lines carry the store-version
 * payload used by the correctness oracle (see mem/memory_state.hh).
 */

#ifndef HMG_CACHE_TAG_ARRAY_HH
#define HMG_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <optional>

#include "cache/set_assoc.hh"
#include "common/types.hh"

namespace hmg
{

/**
 * One cache line's bookkeeping: 16 bytes, the most numerous record of a
 * run (every L1 and L2 line of the machine has one).
 *
 * A store version needs 31 bits (kVersionBits): versions come from one
 * counter per run, which stops the run before it reaches 2^31
 * (mem/memory_state.hh), so the version shares a 32-bit word with the
 * dirty flag. The stamp and the LRU counter are 16 bits; SetAssoc
 * resets the stamps when the generation wraps and renumbers the LRU
 * order before the counter does, so neither width changes a hit or a
 * victim.
 */
struct CacheLine
{
    Addr addr = 0; //!< full line address (tag + index)
    /** Newest store version this copy reflects. */
    std::uint32_t version : kVersionBits = 0;
    bool dirty : 1 = false;  //!< holds a write not yet at the home (WB)
    std::uint16_t stamp = 0; //!< validity; owned by SetAssoc
    std::uint16_t lru = 0;   //!< larger = more recently used
};
static_assert(sizeof(CacheLine) == 16,
              "version and dirty share a word; stamp and lru another");

/** Set-associative array of CacheLine with true-LRU replacement. */
class TagArray
{
  public:
    /**
     * @param num_sets number of sets (any positive integer)
     * @param ways associativity
     * @param line_bytes line size; addresses are hashed by line number
     */
    TagArray(std::uint64_t num_sets, std::uint32_t ways,
             std::uint32_t line_bytes);
    /** The same, carved from `store` (which must outlive the array). */
    TagArray(std::uint64_t num_sets, std::uint32_t ways,
             std::uint32_t line_bytes, TagStore &store);

    /** Build geometry from a capacity in bytes. */
    static TagArray fromCapacity(std::uint64_t capacity_bytes,
                                 std::uint32_t ways,
                                 std::uint32_t line_bytes);
    static TagArray fromCapacity(std::uint64_t capacity_bytes,
                                 std::uint32_t ways,
                                 std::uint32_t line_bytes, TagStore &store);

    /** Bytes fromCapacity() takes from a TagStore. */
    static std::uint64_t storageBytes(std::uint64_t capacity_bytes,
                                      std::uint32_t ways,
                                      std::uint32_t line_bytes);

    /**
     * Find `line_addr` and refresh its LRU stamp.
     * @return the line, or nullptr on miss.
     */
    CacheLine *lookup(Addr line_addr) { return lines_.find(line_addr); }

    /** Find without touching LRU state. */
    const CacheLine *
    peek(Addr line_addr) const
    {
        return lines_.peek(line_addr);
    }
    CacheLine *peek(Addr line_addr) { return lines_.peek(line_addr); }

    /**
     * Allocate a slot for `line_addr`, evicting the set's LRU victim if
     * the set is full. A fresh line has version 0, is clean and has
     * fresh LRU; the caller sets its version.
     *
     * @param evicted set to the displaced line when a live victim was
     *        evicted, else emptied.
     * @return the allocated line (never nullptr). If the line is already
     *         present it is reused in place.
     */
    CacheLine *
    insert(Addr line_addr, std::optional<CacheLine> *evicted = nullptr)
    {
        return lines_.insert(line_addr, evicted).entry;
    }

    /**
     * Invalidate one line.
     * @param dropped if non-null, receives the line as it was
     * @return true if it was present.
     */
    bool
    invalidate(Addr line_addr, CacheLine *dropped = nullptr)
    {
        return lines_.erase(line_addr, dropped);
    }

    /** Invalidate every line in [base, base+bytes). @return count. */
    std::uint64_t invalidateRange(Addr base, std::uint64_t bytes);

    /** Invalidate everything in O(1). @return number of lines dropped. */
    std::uint64_t invalidateAll() { return lines_.clear(); }

    /** Number of currently valid lines. */
    std::uint64_t validCount() const { return lines_.size(); }

    std::uint64_t numSets() const { return lines_.numSets(); }
    std::uint32_t ways() const { return lines_.ways(); }
    std::uint32_t lineBytes() const { return line_bytes_; }

    /** Visit every valid line, in set-then-way order (tests and
     *  diagnostics). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        lines_.forEach(fn);
    }

    /** The set-associative core (layout checks in tests). */
    const SetAssoc<CacheLine, &CacheLine::addr> &core() const
    {
        return lines_;
    }

  private:
    std::uint32_t line_bytes_;
    SetAssoc<CacheLine, &CacheLine::addr> lines_;
};

} // namespace hmg

#endif // HMG_CACHE_TAG_ARRAY_HH
