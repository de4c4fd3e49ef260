/**
 * @file
 * Host memory for set-associative arrays (cache/set_assoc.hh): one
 * anonymous mapping that the arrays carve their regions from.
 *
 * A System computes the bytes of every L1, L2 and directory array it
 * is about to build, maps that total once, and each array takes its
 * regions from the front in construction order. A fresh anonymous
 * mapping reads as zero, which SetAssoc takes for empty entries, so
 * construction writes nothing: a page is faulted in (and zeroed by the
 * kernel) when the simulation first touches it. A store of at least one
 * huge page is aligned to 2 MB and asks for transparent huge pages, so
 * the random probes of a run need one TLB entry per 2 MB of arrays
 * instead of one per 4 KB. A kernel that declines leaves the store on
 * 4 KB pages, with the same contents and results.
 *
 * An array built without a store (tests, benches) gets a private one
 * sized for it alone and populated at once: such an array is often
 * timed as it is used, and a first-touch fault is not part of what the
 * timing asks about. A kernel that cannot populate a mapping leaves it
 * to fault lazily. The mapping is released when the store is
 * destroyed, so a store outlives every array carved from it.
 */

#ifndef HMG_CACHE_TAG_STORE_HH
#define HMG_CACHE_TAG_STORE_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace hmg
{

/** One anonymous mapping, handed out front to back in aligned regions. */
class TagStore
{
  public:
    /** The size and alignment the store asks huge pages for. */
    static constexpr std::uint64_t kHugePage = 2 * 1024 * 1024;
#if defined(__SANITIZE_ADDRESS__)
    /** Poisoned bytes after each region, so an overrun reports. */
    static constexpr std::uint64_t kGuardBytes = 64;
#else
    static constexpr std::uint64_t kGuardBytes = 0;
#endif

    /** Bytes a region of `bytes` takes in a store: rounded up to a
     *  whole host line (kHostLineBytes), so every region starts on
     *  one, plus the guard in AddressSanitizer builds. */
    static constexpr std::uint64_t
    regionBytes(std::uint64_t bytes)
    {
        return (bytes + kHostLineBytes - 1) / kHostLineBytes *
                   kHostLineBytes +
               kGuardBytes;
    }

    /**
     * Map `bytes` of zeroed memory. A refused mapping is fatal.
     * @param what the geometry behind `bytes`, named in that error
     */
    TagStore(std::uint64_t bytes, const std::string &what);
    ~TagStore();

    TagStore(const TagStore &) = delete;
    TagStore &operator=(const TagStore &) = delete;

    /** Fault every page in now rather than on first touch. */
    void populate();

    /** The next region of `bytes`, zero-filled and starting on a host line. */
    void *take(std::uint64_t bytes);

    const std::byte *base() const { return base_; }
    /** Bytes asked for at construction. */
    std::uint64_t size() const { return size_; }
    /** Bytes handed out so far, guards and padding included. */
    std::uint64_t used() const { return used_; }

  private:
    std::byte *base_ = nullptr;
    std::uint64_t size_;
    std::uint64_t mapped_ = 0;
    std::uint64_t used_ = 0;
};

} // namespace hmg

#endif // HMG_CACHE_TAG_STORE_HH
