/**
 * @file
 * The memory-side node of one GPU module (GPM): its L2 cache slice, its
 * local DRAM partition, and — for the hardware protocols — its coherence
 * directory (Fig. 4 / Fig. 5 of the paper).
 */

#ifndef HMG_GPU_GPM_HH
#define HMG_GPU_GPM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "core/directory.hh"
#include "mem/dram.hh"
#include "noc/message.hh"
#include "sim/callback.hh"
#include "sim/engine.hh"

namespace hmg
{

/** L2 + DRAM (+ directory) of one GPM. */
class GpmNode
{
  public:
    using Callback = SmallCallback<kCompletionCbBytes, void()>;

    /** The L2 tags and the directory are carved from `tags`. */
    GpmNode(Engine &engine, const SystemConfig &cfg, GpmId id,
            bool with_directory, TagStore &tags);

    GpmId id() const { return id_; }
    Cache &l2() { return l2_; }
    const Cache &l2() const { return l2_; }
    Dram &dram() { return dram_; }
    Directory *dir() { return dir_.get(); }
    const Directory *dir() const { return dir_.get(); }

    // --- network ingress dispatch ---

    /**
     * A transport-layer message addressed to this node was dispatched by
     * its ingress port and will be delivered at `arrival`. The node
     * accounts per-class receive traffic here; the protocol-level
     * reaction is the message's own arrival continuation.
     */
    void ingress(const Message &m, Tick arrival);

    std::uint64_t messagesReceived(MsgType t) const
    {
        return rx_count_[static_cast<std::size_t>(t)];
    }
    std::uint64_t bytesReceived() const { return rx_bytes_; }

    // --- in-flight invalidation ledger ---
    //
    // A release marker received by this node must not be acknowledged
    // before every invalidation this node has sent has landed
    // (Section IV-B, "Release"). With per-hop queueing the arrival tick
    // of an invalidation is not knowable at injection time, so the node
    // keeps a count of in-flight invalidations and parks release-marker
    // continuations until it drains — the exact analogue of the
    // write-back ledger below.

    /** An invalidation left this node. */
    void invIssued() { ++pending_invs_; }

    /** One of this node's invalidations reached its destination. */
    void invLanded();

    /** Run `cb` once no invalidations from this node are in flight. */
    void waitInvDrained(Callback cb);

    std::uint64_t pendingInvs() const { return pending_invs_; }

    // --- miss-status handling registers (request coalescing) ---
    //
    // Concurrent misses on the same line at one L2 merge into a single
    // outbound fetch; secondary requesters park a callback that fires
    // when the fill lands. This is the request coalescing Section V-A
    // attributes to the hierarchy ("multiple cache requests from
    // individual GPMs to be coalesced and/or cached within a single
    // GPU").
    //
    // Waiters live in a per-node pool that grows to its peak and then
    // recycles, linked per line in arrival order; the map holds only
    // each line's first and last waiter. A miss allocates nothing.

    using MissCb = SmallCallback<kCompletionCbBytes, void(Version)>;

    /**
     * Join the miss on `line`, parking `cb` to be answered toward the
     * requesting tier `via`. @return true if the caller is the primary
     * and must perform the fetch (its own continuation is already
     * parked); false if it merged behind an in-flight fetch.
     */
    bool mshrRegister(Addr line, GpmId via, MissCb cb);

    /**
     * The fill for `line` landed: hand every parked waiter, in arrival
     * order, to `wake(via, cb)`. The line's entry is gone before the
     * first call, so a waiter may register a new miss on the line.
     */
    template <typename Wake>
    void
    mshrComplete(Addr line, Wake &&wake)
    {
        const MissList *parked = mshr_.find(line);
        if (!parked)
            return;
        std::uint32_t w = parked->head;
        mshr_.erase(line);
        while (w != kNoWaiter) {
            // Move the waiter out before its callback runs: the callback
            // may park new waiters and grow the pool under it.
            Waiter &slot = waiters_[w];
            MissCb cb = std::move(slot.cb);
            const GpmId via = slot.via;
            const std::uint32_t next = slot.next;
            slot.next = free_waiter_;
            free_waiter_ = w;
            wake(via, std::move(cb));
            w = next;
        }
    }

    std::uint64_t mshrMerges() const { return mshr_merges_; }

    // --- parked fetch continuations ---
    //
    // A fetch's continuation travels up the home chain as a completion
    // callback, whose inline buffer holds a few ids and one completion.
    // A tier that must resume more than that (a load it may not merge,
    // an atomic it performs itself) parks the continuation here and
    // sends a ticket instead. The pool grows to its peak and recycles.

    // Sized for the fattest, an atomic performed at a GPU home: `this`,
    // a MemAccess, two ids, a Version and a load and a store completion
    // take 176 bytes.
    using ParkedCb = SmallCallback<176, void(Version)>;

    /** Hold `cb` until unpark(); @return its ticket. */
    std::uint32_t park(ParkedCb cb);

    /** Take back the continuation parked under `ticket`. */
    ParkedCb unpark(std::uint32_t ticket);

    // --- in-flight write-back ledger (cfg.l2WriteBack) ---

    /** A dirty-line write-back left this node. */
    void wbIssued() { ++pending_writebacks_; }

    /** The write-back reached the system home. */
    void wbLanded();

    /** Run `cb` once no write-backs from this node are in flight. */
    void waitWbDrained(Callback cb);

    std::uint64_t pendingWritebacks() const { return pending_writebacks_; }

    /** Report into `r` under relative names ("l2.loads", ...): a GPM's
     *  stats are only ever published as sums (gpuN.*, total.*). */
    void reportStats(StatRecorder &r) const;

  private:
    GpmId id_;
    Cache l2_;
    Dram dram_;
    std::unique_ptr<Directory> dir_;

    static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
    /** A parked continuation; `next` links its line's list or the
     *  pool's free list. */
    struct Waiter
    {
        MissCb cb;
        GpmId via = 0;
        std::uint32_t next = kNoWaiter;
    };
    /** One line's parked waiters, first to last. */
    struct MissList
    {
        std::uint32_t head = kNoWaiter;
        std::uint32_t tail = kNoWaiter;
    };
    FlatMap<Addr, MissList> mshr_;
    std::vector<Waiter> waiters_;
    std::uint32_t free_waiter_ = kNoWaiter;

    /** A parked continuation, or (empty) a link of the free list. */
    struct Parked
    {
        ParkedCb cb;
        std::uint32_t next = kNoWaiter;
    };
    std::vector<Parked> parked_;
    std::uint32_t free_parked_ = kNoWaiter;

    /** A slot of `pool` off its free list `free` (linked through
     *  `next`), growing the pool by one when the list is empty. */
    template <typename Slot>
    static std::uint32_t takeSlot(std::vector<Slot> &pool,
                                  std::uint32_t &free);
    std::uint64_t mshr_merges_ = 0;
    std::uint64_t pending_invs_ = 0;
    std::vector<Callback> inv_waiters_;
    std::uint64_t pending_writebacks_ = 0;
    std::vector<Callback> wb_waiters_;
    std::uint64_t rx_count_[kNumMsgTypes] = {};
    std::uint64_t rx_bytes_ = 0;
};

} // namespace hmg

#endif // HMG_GPU_GPM_HH
