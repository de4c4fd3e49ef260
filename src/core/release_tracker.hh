/**
 * @file
 * Per-SM tracking of in-flight writes, used to implement release
 * semantics (Sections IV-B and V-B, "Release").
 *
 * Every store/atomic a SM issues is counted as pending at two levels:
 *  - *GPU level*: cleared when the write reaches the home node inside
 *    the issuing GPU (the GPU home for hierarchical protocols; for flat
 *    protocols this level coincides with the system level);
 *  - *system level*: cleared when the write reaches the system home.
 *
 * A `.gpu`-scoped release waits for the GPU level to drain; a `.sys`
 * release (and a kernel boundary) waits for the system level. This is
 * exactly the paper's "a .gpu-scoped release operation need not flush
 * all write-back operations across the inter-GPU network".
 *
 * No acknowledgment messages are required for this: the protocol engine
 * knows the arrival event of every write it forwarded and simply calls
 * back into the tracker at that tick.
 */

#ifndef HMG_CORE_RELEASE_TRACKER_HH
#define HMG_CORE_RELEASE_TRACKER_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/callback.hh"
#include "sim/lp.hh"
#include "sim/pool.hh"

namespace hmg
{

/** Outstanding-write ledger for every SM in the system. */
class ReleaseTracker
{
  public:
    /**
     * Waiter continuations are move-only SmallCallbacks. Release-fence
     * closures (which capture a DoneCb plus marker-round state) run to
     * ~130 bytes, so the inline buffer is sized generously.
     */
    using Callback = SmallCallback<136, void()>;

    ReleaseTracker(LpDomain &lps, std::uint32_t num_sms);

    /** A store/atomic left SM `sm` (pending at both levels). */
    void issued(SmId sm);

    /** The write reached the GPU-level home. */
    void reachedGpuLevel(SmId sm);

    /** The write reached the system home (implies GPU level cleared). */
    void reachedSysLevel(SmId sm);

    /** Run `cb` once SM `sm` has no writes pending below the GPU level. */
    void waitGpuLevel(SmId sm, Callback cb);

    /** Run `cb` once SM `sm` has no writes pending below the sys level. */
    void waitSysLevel(SmId sm, Callback cb);

    /** Run `cb` once *every* SM's system level is drained. */
    void waitAllDrained(Callback cb);

    std::uint64_t pendingGpu(SmId sm) const
    {
        return sms_[sm].gpu.inFlight();
    }
    std::uint64_t pendingSys(SmId sm) const
    {
        return sms_[sm].sys.inFlight();
    }
    std::uint64_t totalPendingSys() const;

  private:
    /**
     * LP-affinity: every entry point for SM `sm` runs on the LP owning
     * its GPM (the protocols post home-side completions back), so PerSm
     * needs no synchronization. Only the global pending count is shared:
     * one single-writer padded slab per LP, read cross-LP solely by the
     * LP-0 recheck that a zero-crossing posts (the window barrier orders
     * those reads after the writes).
     */
    struct PerSm
    {
        DrainLedger<Callback> gpu; //!< writes short of the GPU level
        DrainLedger<Callback> sys; //!< writes short of the system home
    };

    struct alignas(64) LpPending
    {
        // Single-writer relaxed counter (see class comment).
        std::atomic<std::uint64_t> v{0};
    };

    /** LP-0 only: fire global waiters if the machine is drained. */
    void recheckGlobalDrained();

    LpDomain &lps_;
    std::vector<PerSm> sms_;
    LpPending lp_pending_[LpCounter::kMaxLps];
    /** LP-0 only (waitAllDrained callers run there). */
    std::vector<Callback> global_waiters_;
};

} // namespace hmg

#endif // HMG_CORE_RELEASE_TRACKER_HH
