/**
 * @file
 * Software-managed scoped coherence, non-hierarchical and hierarchical
 * (the "Non-Hierarchical SW Coherence" and "Hierarchical SW Coherence"
 * configurations of Figures 2 and 8).
 *
 * There is no directory and there are no invalidation messages. Instead,
 * correctness comes entirely from the acquire side: load-acquires bulk-
 * invalidate every cache between the issuing SM and the home node for
 * the scope in question (Section VI, "Coherence Protocol
 * Implementations"):
 *
 *  - `.gpu` acquire: the SM's L1 plus the GPM-local L2;
 *  - `.sys` acquire, non-hierarchical: the SM's L1 plus the GPM-local
 *    L2 (other GPMs' L2s are never consulted by this GPM's loads);
 *  - `.sys` acquire, hierarchical: the SM's L1 plus all L2 caches of
 *    the issuing GPU (loads route through the GPU home).
 *
 * Dependent-kernel boundaries act as system-wide acquires by every SM,
 * which bulk-invalidates every L2 in the machine — the cost the paper's
 * hardware protocols exist to avoid.
 *
 * Store-releases stall until the home node for the scope has absorbed
 * all of the SM's pending writes; with write-through caches and FIFO
 * channels no marker/ack traffic is needed.
 *
 * Loads, stores and atomics take the shared walk of core/home_chain.hh
 * with no directory: a flat chain, or one with a GPU-home tier when
 * hierarchical. This class adds only the acquire, release and
 * kernel-boundary rules above.
 */

#ifndef HMG_CORE_SW_PROTOCOL_HH
#define HMG_CORE_SW_PROTOCOL_HH

#include "core/home_chain.hh"

namespace hmg
{

/** Scoped software coherence (bulk invalidation based). */
class SwProtocol : public HomeChainModel
{
  public:
    /**
     * @param hierarchical route and cache through a GPU home node
     * @param cache_remote when false, data homed on a remote GPU is
     *        never cached outside its home GPU
     */
    SwProtocol(SystemContext &ctx, bool hierarchical,
               bool cache_remote = true);

    void acquire(const MemAccess &acc, DoneCb done) override;
    void release(const MemAccess &acc, DoneCb done) override;
    void kernelBoundary() override;

    const char *
    name() const override
    {
        return hier_ ? "SW-Hier" : "SW-NonHier";
    }

    void reportStats(StatRecorder &r) const override;

  private:
    // LP-sharded: these count on whichever LP serves the access.
    LpCounter acquire_l2_invs_;
    LpCounter kernel_boundary_invs_;
};

} // namespace hmg

#endif // HMG_CORE_SW_PROTOCOL_HH
