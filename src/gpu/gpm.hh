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

    GpmNode(Engine &engine, const SystemConfig &cfg, GpmId id,
            bool with_directory);

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

    using MissCb = SmallCallback<kCompletionCbBytes, void(Version)>;

    /**
     * Join the miss on `line`. @return true if the caller is the
     * primary and must perform the fetch (its own continuation is
     * already parked); false if it merged behind an in-flight fetch.
     */
    bool mshrRegister(Addr line, MissCb cb);

    /** The fill for `line` landed: fire every parked continuation. */
    void mshrComplete(Addr line, Version v);

    std::uint64_t mshrMerges() const { return mshr_merges_; }

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
    /** Parked continuations per missing line, in arrival order. */
    FlatMap<Addr, std::vector<MissCb>> mshr_;
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
