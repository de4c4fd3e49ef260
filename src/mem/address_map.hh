/**
 * @file
 * Address arithmetic and home-node mapping.
 *
 * Three granularities matter in this system:
 *  - cache lines (128 B) — unit of caching and data transfer;
 *  - directory sectors (dirLinesPerEntry lines, 512 B by default) — unit
 *    of coherence-directory tracking (Table II: "each entry covers 4
 *    cache lines");
 *  - OS pages (2 MB) — unit of NUMA placement.
 *
 * Home nodes (Sections IV-A and V-A):
 *  - the *system home* GPM of an address is the GPM whose DRAM holds the
 *    page, as decided by the page-placement policy;
 *  - the *GPU home* of an address within GPU g is the GPM of g whose
 *    local index matches the system home's local index, so the system
 *    home GPM doubles as its own GPU's home (cf. Fig. 6);
 *  - the *node home* of an address within node n (multi-node machines)
 *    is the GPU home of the GPU of n whose local index matches the
 *    system home GPU's local index — so every node home is the GPU
 *    home of its own GPU, and the system home serves all three roles
 *    for its own node and GPU.
 */

#ifndef HMG_MEM_ADDRESS_MAP_HH
#define HMG_MEM_ADDRESS_MAP_HH

#include "common/config.hh"
#include "common/types.hh"
#include "mem/page_table.hh"

namespace hmg
{

/** Stateless address arithmetic for a given configuration. */
class AddressMap
{
  public:
    AddressMap(const SystemConfig &cfg, const PageTable &pages);

    // --- granularity conversions ---
    Addr lineAddr(Addr a) const { return a & ~line_mask_; }
    Addr sectorAddr(Addr a) const { return a & ~sector_mask_; }
    Addr pageAddr(Addr a) const { return a & ~page_mask_; }
    std::uint64_t lineNumber(Addr a) const { return a >> line_shift_; }

    std::uint32_t lineBytes() const { return cfg_.cacheLineBytes; }
    std::uint32_t sectorBytes() const
    {
        return cfg_.cacheLineBytes * cfg_.dirLinesPerEntry;
    }

    /** Lines per directory sector. */
    std::uint32_t linesPerSector() const { return cfg_.dirLinesPerEntry; }

    // --- home-node mapping ---

    /** The GPM whose DRAM holds `a` (the page must be placed already). */
    GpmId systemHome(Addr a) const;

    /** The GPU containing the system home. */
    GpuId systemHomeGpu(Addr a) const
    {
        return cfg_.gpuOf(systemHome(a));
    }

    /** The GPM serving as GPU `gpu`'s home for `a`. */
    GpmId gpuHome(GpuId gpu, Addr a) const;

    /** The GPM serving as node `node`'s home for `a`. */
    GpmId nodeHome(NodeId node, Addr a) const;

  private:
    const SystemConfig &cfg_;
    const PageTable &pages_;
    unsigned line_shift_;
    Addr line_mask_;
    Addr sector_mask_;
    Addr page_mask_;
};

} // namespace hmg

#endif // HMG_MEM_ADDRESS_MAP_HH
