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
 */

#ifndef HMG_GPU_SM_HH
#define HMG_GPU_SM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "core/protocol.hh"
#include "sim/engine.hh"
#include "sim/serializer.hh"
#include "trace/trace.hh"

namespace hmg
{

/** One streaming multiprocessor executing trace warps. */
class Sm
{
  public:
    Sm(SystemContext &ctx, CoherenceModel &model, SmId id);

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
    void runCta(const trace::Cta &cta, std::function<void()> on_done);

    /** Bulk-invalidate the L1 (acquires and kernel boundaries). */
    std::uint64_t invalidateL1() { return l1_.invalidateAll(); }

    Cache &l1() { return l1_; }

    // Statistics.
    std::uint64_t opsExecuted() const { return ops_executed_; }
    std::uint64_t loadsIssued() const { return loads_; }
    std::uint64_t storesIssued() const { return stores_; }
    std::uint64_t atomicsIssued() const { return atomics_; }
    std::uint64_t storeBufferForwards() const { return sb_forwards_; }

    /** Report into `r` under relative names ("ops", "l1.loads", ...):
     *  an SM's stats are only ever published as the sm_total.* sum. */
    void reportStats(StatRecorder &r) const;

  private:
    struct WarpCtx
    {
        const trace::Warp *warp = nullptr;
        std::size_t pc = 0;
        std::function<void()> onDone;
        /** Non-blocking loads currently in flight for this warp. */
        std::uint32_t inflight = 0;
        /** Continuation parked on a structural hazard (load limit,
         *  drain before fence/atomic, or warp retirement). */
        std::function<void()> resume;
    };
    using WarpPtr = std::shared_ptr<WarpCtx>;

    // Warp state machine.
    void warpStep(const WarpPtr &w);
    void execute(const WarpPtr &w, const trace::MemOp &op);
    void advance(const WarpPtr &w);
    void finishWarp(const WarpPtr &w);

    void doLoad(const WarpPtr &w, const trace::MemOp &op);
    void doStore(const WarpPtr &w, const trace::MemOp &op);
    void doAtomic(const WarpPtr &w, const trace::MemOp &op);
    void doAcquire(const WarpPtr &w, const trace::MemOp &op);
    void doRelease(const WarpPtr &w, const trace::MemOp &op,
                   std::function<void()> then);

    /** Post-load acquire actions, then advance the warp. */
    void acquireThenAdvance(const WarpPtr &w, const trace::MemOp &op);

    /** A non-blocking load returned: update inflight, unpark the warp. */
    void loadCompleted(const WarpPtr &w);

    // MSHR budget.
    void withSlot(std::function<void()> fn);
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
    std::deque<std::function<void()>> slot_waiters_;

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
