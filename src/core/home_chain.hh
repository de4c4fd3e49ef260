/**
 * @file
 * The one data path of every coherence model: loads, stores and
 * atomics walk the home chain requester -> GPU home -> node home ->
 * system home (Sections IV-B and V-B).
 *
 * The six models differ only in three pieces of data:
 *
 *  - the chain shape: a GPU-home tier (HMG, SW-Hier, Ideal) and a node
 *    tier (HMG on a machine of more than one node);
 *  - one may-cache predicate (mayCache): false only under the
 *    no-remote-caching baseline, for a GPM outside the line's home GPU;
 *  - one directory hook (dirEvent), called where a home answers a load
 *    or applies a write: HwProtocol runs its Table I rows there, the
 *    software models leave it empty.
 *
 * Tiers that land on the same GPM merge: a requester in the system
 * home's GPU has no separate GPU home, and a GPU home in the system
 * home's node no separate node home. The walk takes one step at a time
 * with nextHome() (core/sharer_ops.hh), the step hmgcheck explores, and
 * computes every home from the system home it looked up once.
 */

#ifndef HMG_CORE_HOME_CHAIN_HH
#define HMG_CORE_HOME_CHAIN_HH

#include <cstdint>

#include "core/protocol.hh"
#include "core/sharer_ops.hh"
#include "verify/spec.hh"

namespace hmg
{

/** Base of every coherence model: the shared load/store/atomic walk. */
class HomeChainModel : public CoherenceModel
{
  public:
    void load(const MemAccess &acc, LoadDoneCb done) override;
    void store(const MemAccess &acc, Version v, DoneCb accepted,
               DoneCb sys_done) final;
    void atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                DoneCb sys_done) final;

    bool mayCache(GpmId gpm, Addr line_addr) const final;

    void reportStats(StatRecorder &r) const override;

    /** Loads served by a GPU home in the requester's GPU. */
    std::uint64_t
    loadsGpuHomeHit() const
    {
        return loads_gpu_home_hit_.total();
    }

  protected:
    /**
     * @param gpu_tier     a GPU home stands between a GPM and the
     *                     system home
     * @param node_tier    a node home stands between a GPU home and a
     *                     system home in another node
     * @param cache_remote when false, data homed on a remote GPU is
     *                     never cached outside its home GPU
     */
    HomeChainModel(SystemContext &ctx, bool gpu_tier, bool node_tier,
                   bool cache_remote);

    /**
     * The directory hook, run at home `at` for a line whose system home
     * is `h`: `LoadMiss` when `at` answers a load from the tier below,
     * `via`, in the event that sends the response; `Store` when a write
     * lands at `at` on behalf of `via` (kInvalidGpm: no tier keeps a
     * tracked copy).
     */
    virtual void
    dirEvent(verify::DirEvent /*ev*/, GpmId /*at*/, GpmId /*via*/,
             Addr /*line*/, GpmId /*h*/)
    {
    }

    /** State threaded through a write-through chain. */
    struct StoreFlow
    {
        MemAccess acc;
        Version v = 0;
        DoneCb sysDone;           //!< per-op completion for the SM
        bool gpuCleared = false;  //!< GPU-level tracker already released
        bool recordWriter = true; //!< each home records the tier below
        bool tracked = true;      //!< counts against the ReleaseTracker
        bool serialized = true;   //!< ordered by home arrival; false for
                                  //!< write-back flushes of older data
    };

    /**
     * The write-through entry: carry `f` from its source GPM
     * `f.acc.gpm`, whose own L2 already holds the write, up the chain
     * to the system home `h`.
     */
    void writeThrough(StoreFlow f, GpmId h);

    /** System home GPM of a line. */
    GpmId sysHome(Addr line) const { return ctx_.amap.systemHome(line); }

    /** Tag-check cost (misses); hits additionally pay dataLat(). */
    Tick tagLat() const { return ctx_.cfg.l2TagLatency; }

    const SharerTopology topo_;
    const bool hier_;      //!< the chain has a GPU-home tier
    const bool multiNode_; //!< the chain has a node tier

    /** Loads served by a node home (a home in another GPU). */
    LpCounter loads_node_home_hit_;

  private:
    Tick dataLat() const
    {
        return ctx_.cfg.l2HitLatency - ctx_.cfg.l2TagLatency;
    }

    /** Is GPM `g` a home (GPU, node or system) for system home `h`? */
    bool isHome(GpmId g, GpmId h) const;

    /**
     * The memory oracle, for a line whose system home is `h`. A line's
     * version lives in the partition of the LP that reads and writes
     * it (mem/memory_state.hh), so in threaded runs the running LP must
     * own `h`.
     */
    MemoryState &memAt(GpmId h) const;

    GpmId
    nextHome(GpmId g, GpmId h) const
    {
        return hmg::nextHome(topo_, hier_, multiNode_, g, h);
    }

    // --- loads: each tier serves the tier below it, `via` (`via` ==
    //     `at` at the requester), and answers through `below` ---

    /** Pay `at`'s tag check, then probe it. */
    void serveLoad(const MemAccess &acc, GpmId at, GpmId via, GpmId h,
                   LoadDoneCb below);

    /** Hit in `at`'s L2, merge into its in-flight miss, or fetch. */
    void probeLoad(const MemAccess &acc, GpmId at, GpmId via, GpmId h,
                   LoadDoneCb below);

    /** Hand `v` from `at` to `via`. */
    void respond(Addr line, GpmId at, GpmId via, GpmId h, LoadDoneCb below,
                 Version v);

    /** Fetch the line for `at` from the next home up; `then` runs at
     *  `at` with the value. */
    void fetchUp(const MemAccess &acc, GpmId at, GpmId h, LoadDoneCb then);

    /** The fill for `line` reached `at`: answer every merged waiter. */
    void wakeMerged(Addr line, GpmId at, GpmId h, Version v);

    /** A fetch continuation too fat to travel: park `then` at `at`
     *  (where the fill returns) and travel as its ticket. */
    LoadDoneCb parked(GpmId at, GpmNode::ParkedCb then);

    // --- stores ---

    /** A write-through lands at home `at`, sent by `via`. */
    void storeAt(StoreFlow f, GpmId at, GpmId via, GpmId h);

    /** Home `at` has applied the write: release the tracker level it
     *  completes and pass the write on. */
    void climb(StoreFlow f, GpmId at, GpmId h);

    /** Send the write-through from `from` to the next home up. */
    void forward(StoreFlow f, GpmId from, GpmId h);

    // --- atomics ---

    void atomicAt(const MemAccess &acc, GpmId target, GpmId h, Version v,
                  LoadDoneCb done, DoneCb sys_done);
    void performAtomic(const MemAccess &acc, GpmId target, GpmId h,
                       Version v, Version old_v, LoadDoneCb done,
                       DoneCb sys_done);

    const bool cacheRemote_;

    // LP-sharded: these count on whichever LP serves the access.
    LpCounter loads_local_hit_;
    LpCounter loads_gpu_home_hit_;
    LpCounter loads_sys_home_hit_;
    LpCounter loads_dram_;
};

} // namespace hmg

#endif // HMG_CORE_HOME_CHAIN_HH
