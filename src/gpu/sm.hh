/**
 * @file
 * The SM front-end: warp execution, the software-managed L1, the store
 * buffer, and the issue/MSHR throttles.
 *
 * Execution model (a standard trace-driven abstraction):
 *  - each resident warp executes its MemOps in order;
 *  - loads and atomics block their warp until the value returns; stores
 *    are posted (fire-and-forget) and only block for a small issue cost;
 *  - latency is hidden across warps, bounded by an issue port of
 *    `smIssueWidth` ops/cycle and an MSHR budget of `smMaxOutstanding`
 *    in-flight requests per SM.
 *
 * L1 semantics follow the paper: write-through, no write-allocate,
 * software managed. Loads of scope wider than `.cta` must miss the L1;
 * acquires of scope wider than `.cta` bulk-invalidate it (Sections
 * II-C/IV-B). A small store buffer forwards a warp's own in-flight
 * writes so per-thread per-location coherence holds even while a
 * write-through is still crossing the machine.
 *
 * Warp contexts and per-CTA counters live in per-SM SlotPools
 * (sim/pool.hh) indexed by slot; a pool grows on demand to the SM's
 * peak number of resident warps (or CTAs) and reuses freed slots, so
 * nothing is allocated at construction and nothing per op.
 * Continuations capture `this` and a slot index. A warp stalled on a
 * structural hazard parks with a tag (retire, or re-run the op at its
 * pc) that the next of its in-flight loads to return acts on. The MSHR
 * waiters and release continuations are SmallCallbacks, which hold
 * every closure inline, so no load, store or atomic heap-allocates a
 * closure or touches a reference count.
 */

#ifndef HMG_GPU_SM_HH
#define HMG_GPU_SM_HH

#include <cstdint>
#include <deque>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "core/protocol.hh"
#include "sim/engine.hh"
#include "sim/pool.hh"
#include "sim/serializer.hh"
#include "trace/trace.hh"

namespace hmg
{

/** One streaming multiprocessor executing trace warps. */
class Sm
{
  public:
    /** The L1 tags are carved from `tags`. */
    Sm(SystemContext &ctx, CoherenceModel &model, SmId id, TagStore &tags);

    SmId id() const { return id_; }
    GpmId gpm() const { return gpm_; }

    /** Warp slots currently unoccupied. */
    std::uint32_t freeWarpSlots() const
    {
        return ctx_.cfg.maxWarpsPerSm - active_warps_;
    }

    /** Can this SM host `cta` right now? */
    bool
    canAccept(const trace::Cta &cta) const
    {
        return cta.warps.size() <= freeWarpSlots();
    }

    /**
     * Start executing `cta` (must fit). `on_done` runs when every warp
     * of the CTA has retired its last op. The Cta must outlive the run.
     */
    void runCta(const trace::Cta &cta, DoneCb on_done);

    /** Warp contexts in this SM's pool: its peak of resident warps. */
    std::size_t warpSlots() const { return warps_.size(); }

    /** Bulk-invalidate the L1 (acquires and kernel boundaries). */
    std::uint64_t invalidateL1() { return l1_.invalidateAll(); }

    Cache &l1() { return l1_; }

    // Statistics.
    std::uint64_t opsExecuted() const { return ops_executed_; }

    /** Report into `r` under relative names ("ops", "l1.loads", ...):
     *  an SM's stats are only ever published as the sm_total.* sum. */
    void reportStats(StatRecorder &r) const;

  private:
    /** Index of a warp context in warps_. */
    using WarpSlot = std::uint32_t;

    /** What a parked warp does when one of its loads returns. */
    enum class Park : std::uint8_t
    {
        None,   //!< not parked
        Retire, //!< past its last op: retire (or park again)
        Rerun,  //!< stalled on a hazard: re-run the op at pc
    };

    struct WarpCtx
    {
        /** Null while the slot is free. */
        const trace::Warp *warp = nullptr;
        std::size_t pc = 0;
        /** The CTA's slot in ctas_. */
        std::uint32_t cta = 0;
        /** Non-blocking loads currently in flight for this warp. */
        std::uint32_t inflight = 0;
        /** Set on a structural hazard (load limit, drain before a
         *  fence or atomic) or at retirement with loads in flight. */
        Park park = Park::None;
    };

    struct CtaCtx
    {
        std::uint32_t remaining = 0; //!< warps not yet retired
        DoneCb onDone;
    };

    /** A continuation waiting for an MSHR slot. */
    using SlotWaiter = SmallCallback<kCompletionCbBytes>;

    // Warp state machine. Continuations hold a WarpSlot, never a
    // WarpCtx reference: retiring a warp can start a new CTA on this SM,
    // which may grow the pool.
    void warpStep(WarpSlot w);
    void execute(WarpSlot w, const trace::MemOp &op);
    void advance(WarpSlot w);
    void finishWarp(WarpSlot w);

    void doLoad(WarpSlot w, const trace::MemOp &op);
    void doStore(WarpSlot w, const trace::MemOp &op);
    void doAtomic(WarpSlot w, const trace::MemOp &op);
    void doRelease(const trace::MemOp &op, DoneCb then);

    /** Post-load acquire actions, then advance the warp. */
    void acquireThenAdvance(WarpSlot w, const trace::MemOp &op);

    /** A non-blocking load returned: update inflight, unpark the warp. */
    void loadCompleted(WarpSlot w);

    // MSHR budget.
    void withSlot(SlotWaiter fn);
    void releaseSlot();

    // Store buffer (own in-flight write forwarding).
    void sbInsert(Addr line, Version v);
    void sbRemove(Addr line);
    const Version *sbLookup(Addr line) const;

    MemAccess accessFor(const trace::MemOp &op) const;
    Addr lineOf(Addr a) const;

    SystemContext &ctx_;
    CoherenceModel &model_;
    SmId id_;
    GpmId gpm_;

    Cache l1_;
    RateSerializer issue_port_; ///< smIssueWidth ops per cycle

    std::uint32_t active_warps_ = 0;
    std::uint32_t outstanding_ = 0;
    std::deque<SlotWaiter> slot_waiters_;

    SlotPool<WarpCtx> warps_;
    SlotPool<CtaCtx> ctas_;

    struct SbEntry
    {
        Version version = 0;
        std::uint32_t refs = 0;
    };
    FlatMap<Addr, SbEntry> store_buffer_;

    std::uint64_t ops_executed_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t atomics_ = 0;
    std::uint64_t sb_forwards_ = 0;
};

} // namespace hmg

#endif // HMG_GPU_SM_HH
