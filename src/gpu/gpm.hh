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

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "core/directory.hh"
#include "mem/dram.hh"
#include "noc/message.hh"
#include "sim/callback.hh"
#include "sim/engine.hh"
#include "sim/pool.hh"

namespace hmg
{

/**
 * L2 + DRAM (+ directory) of one GPM. Only the LP owning the GPM writes
 * it during a window, so a node owns its host lines.
 */
class alignas(kHostLineBytes) GpmNode
{
  public:
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
     * counts received messages and bytes here; the protocol-level
     * reaction is the message's own arrival continuation.
     */
    void ingress(const Message &m, Tick arrival);

    // --- in-flight ledgers ---
    //
    // A release marker received by this node must not be acknowledged
    // before every invalidation this node has sent has landed
    // (Section IV-B, "Release"). With per-hop queueing the arrival tick
    // of an invalidation is not knowable at injection time, so the node
    // counts its invalidations in flight and parks release-marker
    // continuations until the count drains. In write-back mode
    // (cfg.l2WriteBack) a flush waits the same way for this node's
    // dirty-line write-backs to reach their system homes.

    using Ledger = DrainLedger<SmallCallback<kCompletionCbBytes, void()>>;

    /** Invalidations this node sent that have not landed. */
    Ledger &invs() { return invs_; }

    /** Write-backs this node sent that have not reached the home. */
    Ledger &writebacks() { return writebacks_; }

    // --- miss-status handling registers (request coalescing) ---
    //
    // Concurrent misses on the same line at one L2 merge into a single
    // outbound fetch; secondary requesters park a callback that fires
    // when the fill lands. This is the request coalescing Section V-A
    // attributes to the hierarchy ("multiple cache requests from
    // individual GPMs to be coalesced and/or cached within a single
    // GPU").
    //
    // Waiters live in a per-node SlotPool, linked per line in arrival
    // order; the map holds only each line's first and last waiter. A
    // miss allocates nothing.

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
            waiters_.free(w);
            wake(via, std::move(cb));
            w = next;
        }
    }

    // --- parked fetch continuations ---
    //
    // A fetch's continuation travels up the home chain as a completion
    // callback, whose inline buffer holds a few ids and one completion.
    // A tier that must resume more than that (a load it may not merge,
    // an atomic it performs itself) parks the continuation here and
    // sends a ticket instead, the continuation's index in a SlotPool.

    // Sized for the fattest, an atomic performed at a GPU home: `this`,
    // a MemAccess, two ids, a Version and a load and a store completion
    // take 176 bytes.
    using ParkedCb = SmallCallback<176, void(Version)>;

    /** Hold `cb` until unpark(); @return its ticket. */
    std::uint32_t park(ParkedCb cb);

    /** Take back the continuation parked under `ticket`. */
    ParkedCb unpark(std::uint32_t ticket);

    /** Report into `r` under relative names ("l2.loads", ...): a GPM's
     *  stats are only ever published as sums (gpuN.*, total.*). */
    void reportStats(StatRecorder &r) const;

  private:
    GpmId id_;
    Cache l2_;
    Dram dram_;
    std::unique_ptr<Directory> dir_;

    static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
    /** A parked continuation; `next` links its line's list. */
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
    SlotPool<Waiter> waiters_;
    SlotPool<ParkedCb> parked_;
    std::uint64_t mshr_merges_ = 0;
    Ledger invs_;
    Ledger writebacks_;
    std::uint64_t rx_msgs_ = 0;
    std::uint64_t rx_bytes_ = 0;
};

static_assert(alignof(GpmNode) == kHostLineBytes);

} // namespace hmg

#endif // HMG_GPU_GPM_HH
