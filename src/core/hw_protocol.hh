/**
 * @file
 * The hardware directory protocols: NHCC (Section IV) and HMG
 * (Section V), selected by the `hierarchical` flag.
 *
 * Both implement Table I: two stable states (Valid while a directory
 * entry exists, Invalid otherwise), no transient states, no invalidation
 * acknowledgments. Stores proceed instantly; invalidations propagate in
 * the background; only release operations gather acknowledgments, via
 * per-L2 release markers that drain the in-flight invalidation channels
 * (Section IV-B, "Release").
 *
 * Loads, stores and atomics take the shared walk of core/home_chain.hh.
 * NHCC's chain is flat: one home (the system home) per address, flat
 * sharer bits, and `.gpu` releases pay full-system cost. HMG's chain
 * has a GPU home inside each GPU (same local GPM index as the system
 * home); the GPU home's directory tracks GPM sharers of its GPU, the
 * system home's tracks GPU-level sharers, and invalidations received by
 * a GPU home are re-fanned to its GPM sharers (the HMG-only transition
 * of Table I). With numNodes > 1 the chain gains a node home per node;
 * its directory tracks the GPU homes of its node, the system home's
 * tracks node-level sharers, and it re-fans invalidations one tier down
 * as a GPU home does.
 *
 * This class supplies the walk's directory hook and everything else:
 * the directory plumbing, invalidation and re-fan, release markers,
 * write-back flushes and clean-eviction downgrades.
 */

#ifndef HMG_CORE_HW_PROTOCOL_HH
#define HMG_CORE_HW_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/home_chain.hh"

namespace hmg
{

/** NHCC / HMG protocol engine. */
class HwProtocol : public HomeChainModel
{
  public:
    HwProtocol(SystemContext &ctx, bool hierarchical);

    void acquire(const MemAccess &acc, DoneCb done) override;
    void release(const MemAccess &acc, DoneCb done) override;
    void kernelBoundary() override;
    void drainForBoundary(DoneCb done) override;

    const char *name() const override { return hier_ ? "HMG" : "NHCC"; }

    void reportStats(StatRecorder &r) const override;

  private:
    /** The walk's directory hook: one Table I row per event. */
    void dirEvent(verify::DirEvent ev, GpmId at, GpmId via, Addr line,
                  GpmId h) override;

    // --- release machinery ---

    /** The GPMs a release from one GPM sends markers to (release()). */
    struct MarkerTargets
    {
        std::vector<GpmId> gpuPeers; //!< its GPU's other GPMs, in order
        std::vector<GpmId> relayed;  //!< gpuPeers, then one relay (same
                                     //!< local index) per remote GPU
        std::vector<GpmId> others;   //!< every other GPM of the machine
    };

    /**
     * The marker rounds of one release, run one after another from `r`
     * to `targets`: each target acknowledges once its previously-sent
     * invalidations have landed, and a round ends at `r` when all acks
     * (plus r's own drain) are in; `done` runs at `r` after the last.
     * With `relay`, a target on another GPU relays: it runs its own
     * round over its GPU's other GPMs and acknowledges once that round
     * completes (cfg.hierarchicalReleaseFanout: same drain guarantees,
     * fewer inter-GPU messages).
     */
    struct MarkerRounds
    {
        GpmId r = 0;
        const std::vector<GpmId> *targets = nullptr;
        bool relay = false;
        int left = 1;              //!< rounds not yet completed
        std::uint32_t pending = 0; //!< acks the current round awaits
        DoneCb done;
    };

    /** Start the next round of `rounds`. */
    void markerRound(const std::shared_ptr<MarkerRounds> &rounds);

    // --- directory maintenance (table-driven; see src/verify/spec.hh) ---

    /**
     * Apply the unique Table I row for (entry state at `at`, `ev`,
     * writer-tracked guard of `via`) for a line whose system home is
     * `h`: emit the row's invalidations (charged to `job`) and execute
     * its commit step on the directory. All directory maintenance —
     * sharer recording, store/atomic invalidation fans, HMG re-fans,
     * downgrades — funnels through here, so the rows hmgcheck verifies
     * are the rows executed.
     */
    void applyDirEventAt(GpmId at, GpmId h, GpmId via, Addr line,
                         verify::DirEvent ev, InvJobPtr &job);

    /** Table I "Replace Dir Entry" on a displaced (detached) victim. */
    void replaceVictim(GpmId at, const DirEntry &victim);

    /** Send one invalidation and process it at the destination. */
    void sendInv(GpmId from, GpmId to, Addr sector, InvJobPtr job);

    /** Invalidation arriving at `at` (may re-fan at a GPU home). */
    void handleInv(GpmId at, Addr sector, InvJobPtr job);

    /** Clean-eviction downgrades (Section IV-B, off by default; exact
     *  only at 1-line directory granularity) and write-back of dirty
     *  victims. */
    void installEvictionHooks();

    // --- write-back mode (Section IV-B design alternative) ---

    bool writeBack() const { return ctx_.cfg.l2WriteBack; }

    /**
     * Send one line from `src` toward its home. Flushes (release /
     * boundary) keep the line cached clean and record `src` as a
     * sharer; eviction- and invalidation-triggered write-backs use the
     * paper's update-without-tracking message (`record` = false).
     * Completion is reported to src's GpmNode write-back ledger.
     */
    void writeBackLine(GpmId src, Addr line, Version v, bool record);

    /** Flush every dirty line of `g`'s L2 toward its home. */
    std::uint64_t flushDirty(GpmId g);

    /** Release marker targets, by releasing GPM. */
    std::vector<MarkerTargets> marker_targets_;

    // LP-sharded: these count on whichever LP serves the access.
    LpCounter releases_;
    LpCounter rel_markers_;
    LpCounter downgrades_;
};

} // namespace hmg

#endif // HMG_CORE_HW_PROTOCOL_HH
