/**
 * @file
 * The coherence-model interface.
 *
 * A CoherenceModel implements everything below the L1: routing of loads,
 * stores and atomics through the L2 hierarchy, directory maintenance,
 * invalidation, and the L2-level part of acquire/release semantics. The
 * SM front-end (gpu/sm.hh) handles the L1 and calls down into this
 * interface; one concrete model exists per evaluated configuration:
 *
 *   NoRemoteCacheModel  — the normalization baseline of Figs. 2 and 8
 *   SwProtocol          — non-hierarchical / hierarchical SW coherence
 *   HwProtocol          — NHCC (flat) and HMG (hierarchical)
 *   IdealModel          — caching everywhere, no coherence enforcement
 *
 * All four take their loads, stores and atomics from one walk up the
 * home chain, HomeChainModel (core/home_chain.hh); they differ in its
 * shape, its may-cache predicate and its directory hook. The runtime
 * checker (core/checker.hh) is a decorator around any of them.
 */

#ifndef HMG_CORE_PROTOCOL_HH
#define HMG_CORE_PROTOCOL_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/release_tracker.hh"
#include "gpu/gpm.hh"
#include "mem/address_map.hh"
#include "mem/memory_state.hh"
#include "mem/page_table.hh"
#include "noc/network.hh"
#include "sim/callback.hh"
#include "sim/engine.hh"
#include "sim/lp.hh"

namespace hmg
{

/** One memory access as seen below the L1. Addresses are line-aligned. */
struct MemAccess
{
    SmId sm = 0;
    GpmId gpm = 0;       //!< requesting GPM
    Addr lineAddr = 0;
    Scope scope = Scope::None;
};

class CoherenceChecker;

/** Everything a protocol engine needs to reach the rest of the system. */
struct SystemContext
{
    LpDomain &lps;
    const SystemConfig &cfg;
    Network &net;
    PageTable &pages;
    AddressMap &amap;
    MemoryState &mem;
    ReleaseTracker &tracker;
    std::vector<std::unique_ptr<GpmNode>> &gpms;

    /** Set while a CoherenceChecker wraps the model (`--check`): the
     *  hardware protocols feed it their invalidation lifecycle. */
    CoherenceChecker *checker = nullptr;

    GpmNode &gpm(GpmId id) { return *gpms.at(id); }

    /**
     * The engine of the logical process running this code. Inside a run
     * loop that is the LP-local engine (serial runs have exactly one);
     * during setup and barriers it falls back to LP 0. Protocol code
     * schedules continuations here — by construction they concern state
     * owned by the current LP, or are routed via lps.post() first.
     */
    Engine &engine() const
    {
        Engine *e = Engine::current();
        return e ? *e : lps.engine(0);
    }

    /** The engine owning GPM `g`'s state (for construction-time
     *  bindings of per-GPM machinery). */
    Engine &engineOf(GpmId g) const { return lps.engineOfGpm(g); }
};

/**
 * Completion callback carrying the version a load observed. Move-only
 * SmallCallback (sim/callback.hh) rather than std::function: the SM
 * front-end's completion captures (~48–56 bytes) live in the inline
 * buffer, so the protocol hot path allocates nothing per operation.
 */
using LoadDoneCb = SmallCallback<kCompletionCbBytes, void(Version)>;
/** Completion callback for stores/fences (move-only, heap-free). */
using DoneCb = SmallCallback<kCompletionCbBytes, void()>;

/**
 * Abstract coherence model. All entry points are asynchronous: they may
 * complete in zero or more engine events and then invoke the callback.
 */
class CoherenceModel
{
  public:
    explicit CoherenceModel(SystemContext &ctx) : ctx_(ctx) {}
    virtual ~CoherenceModel() = default;

    CoherenceModel(const CoherenceModel &) = delete;
    CoherenceModel &operator=(const CoherenceModel &) = delete;

    /** Handle a load that missed (or bypassed) the L1. */
    virtual void load(const MemAccess &acc, LoadDoneCb done) = 0;

    /**
     * Handle a store of version `v`. `accepted` fires when the SM may
     * retire the op locally; `sys_done` fires when the write-through has
     * reached the system home (the SM uses it to retire store-buffer /
     * MSHR resources). Scope-level completion for releases is reported
     * through the ReleaseTracker (issued() has already been called by
     * the SM).
     */
    virtual void store(const MemAccess &acc, Version v, DoneCb accepted,
                       DoneCb sys_done) = 0;

    /**
     * Handle an atomic RMW: `done` returns the pre-op version when the
     * response reaches the SM; `sys_done` fires when the atomic's result
     * has been written through to the system home.
     */
    virtual void atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                        DoneCb sys_done) = 0;

    /** L2-level work of an acquire fence (L1 inval is done by the SM). */
    virtual void acquire(const MemAccess &acc, DoneCb done) = 0;

    /** Release fence at `acc.scope`; `done` fires at completion. */
    virtual void release(const MemAccess &acc, DoneCb done) = 0;

    /**
     * Cache maintenance at a dependent-kernel boundary (all in-flight
     * writes have already drained). HW protocols do nothing at the L2;
     * SW protocols bulk-invalidate per their scope rules.
     */
    virtual void kernelBoundary() = 0;

    /**
     * Quiesce all globally visible writes before a kernel boundary (and
     * before the end of the trace). The default waits for every SM's
     * in-flight write-throughs; write-back mode additionally flushes
     * dirty L2 lines first.
     */
    virtual void
    drainForBoundary(DoneCb done)
    {
        ctx_.tracker.waitAllDrained(std::move(done));
    }

    /** May GPM `gpm` (its L2 and its SMs' L1s) keep a copy of this
     *  line? */
    virtual bool mayCache(GpmId gpm, Addr line_addr) const = 0;

    /**
     * Do acquires (and kernel boundaries) invalidate the issuing SM's
     * L1? True for every real protocol; the idealized-caching model
     * turns it off to serve as the no-coherence-overhead upper bound.
     */
    virtual bool invalidatesL1OnAcquire() const { return true; }

    virtual const char *name() const = 0;

    virtual void reportStats(StatRecorder &r) const;

    // --- shared coherence statistics (Figures 9-11) ---

    /** Lines invalidated per store that found other sharers (Fig. 9). */
    const MeanStat &storeInvStat() const { return store_inv_; }
    /** Lines invalidated per directory eviction (Fig. 10). */
    const MeanStat &evictInvStat() const { return evict_inv_; }
    std::uint64_t invMessagesSent() const { return inv_msgs_.total(); }

  protected:
    /**
     * A tree of invalidation messages triggered by one cause (a store or
     * a directory eviction). Tracks how many messages are still in
     * flight and how many cache lines they dropped, and samples the
     * right mean-statistic when the last one lands.
     */
    struct InvJob
    {
        std::uint32_t pending = 0;
        std::uint64_t lines = 0;
        MeanStat *stat = nullptr;
    };

    using InvJobPtr = std::shared_ptr<InvJob>;

    InvJobPtr
    makeInvJob(bool from_store)
    {
        auto job = std::make_shared<InvJob>();
        job->stat = from_store ? &store_inv_ : &evict_inv_;
        return job;
    }

    /** Finish one message of `job`; samples the stat when all landed. */
    void finishInvMsg(const InvJobPtr &job, std::uint64_t lines_dropped);

    SystemContext &ctx_;
    /** Guarded by lps.modelMutex() in concurrent runs: InvJobs fan
     *  across LPs and the last message may land on any of them. */
    MeanStat store_inv_;
    MeanStat evict_inv_;
    LpCounter inv_msgs_; ///< LP-sharded (counted at the sending home)
};

/** Instantiate the model selected by `ctx.cfg.protocol`. */
std::unique_ptr<CoherenceModel> makeCoherenceModel(SystemContext &ctx);

// --- shared scope helpers ---

/** Where below the system home a cache sits relative to an address. */
enum class CacheRole : std::uint8_t
{
    NonHome,   //!< any L2 that is not a home
    GpuHome,   //!< a GPU or node home (hierarchical protocols)
};

/**
 * May a load of scope `s` hit in a cache playing `role`? Implements the
 * forward-progress miss rules of Sections IV-B and V-B: `.gpu` loads
 * must miss below the GPU home; `.sys` loads may hit only at the system
 * home, which may always answer.
 */
constexpr bool
loadMayHit(Scope s, CacheRole role)
{
    switch (role) {
      case CacheRole::NonHome:
        return s <= Scope::Cta;
      case CacheRole::GpuHome:
        return s <= Scope::Gpu;
    }
    return false;
}

} // namespace hmg

#endif // HMG_CORE_PROTOCOL_HH
