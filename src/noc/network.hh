/**
 * @file
 * The interconnect: one Port per link of the machine's fabric
 * (common/fabric.hh) — the intra-GPU crossbars and the inter-GPU switch
 * of Fig. 1 / Fig. 4 of the paper, plus the node switch tier when the
 * topology declares numNodes > 1. The fabric owns the port graph: which
 * links exist, their rates, latencies, inputs and credit pools, and
 * the route and feeder of every hop. The Network binds each link to a
 * Port on the engine of the LP that owns it and wires routes, credit
 * returns and fault injectors from the fabric's rules; on a
 * single-node machine no node port, stat key or route step exists.
 *
 * Every hop is a Port (noc/port.hh): a bounded queue per upstream
 * source, deterministic round-robin arbitration among contending
 * sources, exact-rational bandwidth serialization, and credit-style
 * backpressure that propagates hop by hop back to the injecting GPM.
 * Cross-source contention at a shared hop is therefore modeled
 * explicitly, per cycle — including the queueing delay and the 100%
 * utilization ceiling of an oversubscribed inter-GPU link (the effect
 * HMG's hierarchy exists to relieve; Fig. 12). Per-(src,dst) delivery
 * stays FIFO, which the protocols' release/invalidation-drain logic
 * requires.
 *
 * In threaded time-window PDES runs the fabric's cut tier (the GPU
 * switch single-node, the node uplinks otherwise) is where LPs meet:
 * each directed pair of cut units in different LPs gets one LpChannel
 * (noc/lp_channel.hh), drained at the window barrier.
 *
 * Producers construct typed Messages and inject() them. Injection moves
 * the body into the source LP's MessageSlab (one slab per LP in
 * time-window runs, a single one otherwise) and queues its 16-byte
 * MsgRef in an unbounded per-GPM NIC queue (so protocol logic can never
 * deadlock against the fabric); the NIC feeds the GPM's egress port as
 * credits free up, and the SM store path observes the NIC backlog via
 * whenInjectable() to throttle issue under congestion. Delivery moves
 * the arrival closure out of the slab into the engine and frees the
 * slot.
 */

#ifndef HMG_NOC_NETWORK_HH
#define HMG_NOC_NETWORK_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/fabric.hh"
#include "common/stats.hh"
#include "fault/plan.hh"
#include "noc/message.hh"
#include "noc/port.hh"
#include "sim/callback.hh"
#include "sim/engine.hh"
#include "sim/lp.hh"

namespace hmg
{

class LpChannel;

/** The full system interconnect. */
class Network
{
  public:
    /** Single-engine wiring (serial runs, transport unit tests). */
    Network(Engine &engine, const SystemConfig &cfg);

    /**
     * Partitioned wiring: every port is bound to the engine of the LP
     * owning its link's unit. In TimeWindow mode the cut-tier links
     * that cross LPs dispatch into LpChannels drained at the window
     * barrier (the hook is registered here); deterministic-merge and
     * one-LP plans keep the exact serial wiring.
     */
    Network(LpDomain &lps, const SystemConfig &cfg);

    ~Network();

    /**
     * Queue a typed message for transport. `m.bytes` is derived from
     * `m.type` here; `m.onArrival` runs at the delivery tick, after the
     * last hop. Never blocks (the NIC queue is unbounded); senders that
     * should feel backpressure poll injectionBacklog()/whenInjectable().
     */
    void inject(Message m);

    /**
     * Observer invoked when a message is dispatched by its final
     * ingress port, before the arrival continuation runs; the System
     * routes it to the destination GpmNode's ingress accounting.
     */
    using DeliveryHook = std::function<void(const Message &, Tick)>;
    void setDeliveryHook(DeliveryHook hook)
    {
        delivery_hook_ = std::move(hook);
    }

    /** True when both GPMs sit on the same GPU. */
    bool sameGpu(GpmId a, GpmId b) const
    {
        return cfg_.gpuOf(a) == cfg_.gpuOf(b);
    }

    // --- injection backpressure (SM store-issue throttle) ---

    /** Messages parked in `src`'s NIC queue awaiting egress credit. */
    std::uint32_t injectionBacklog(GpmId src) const
    {
        return static_cast<std::uint32_t>(nics_[src].queue.size());
    }

    /** May `src` inject without exceeding the configured backlog? */
    bool injectable(GpmId src) const
    {
        return injectionBacklog(src) < cfg_.nocInjectionBacklogLimit &&
               nics_[src].waiters.empty();
    }

    using InjectWaiter = SmallCallback<kCompletionCbBytes, void()>;

    /**
     * One GPM's injection side: its NIC queue (unbounded; see the file
     * comment), its store-issue waiters, and whether a drain of them is
     * running. Only the LP owning the GPM writes it, so each record owns
     * its host lines.
     */
    struct alignas(kHostLineBytes) Nic
    {
        std::deque<MsgRef> queue;
        std::deque<InjectWaiter> waiters;
        bool draining = false;
    };
    static_assert(alignof(Nic) == kHostLineBytes);

    /** GPM `g`'s injection record. */
    const Nic &nic(GpmId g) const { return nics_[g]; }

    /** The message slab of LP `lp` (the only one when not concurrent). */
    const MessageSlab &
    slab(std::uint32_t lp) const
    {
        return slabs_[concurrent() ? lp : 0];
    }

    /**
     * Run `cb` as soon as `src` may inject (immediately when already
     * injectable). Waiters run in FIFO order as the NIC drains.
     */
    void whenInjectable(GpmId src, InjectWaiter cb);

    // --- statistics (drive Fig. 11 and the bandwidth analyses) ---

    /** Bytes of messages of type `t` that crossed inter-GPU links. */
    std::uint64_t interGpuBytes(MsgType t) const
    {
        return inter_bytes_[static_cast<std::size_t>(t)].total();
    }

    /** Bytes of type `t` on intra-GPU crossbars. */
    std::uint64_t intraGpuBytes(MsgType t) const
    {
        return intra_bytes_[static_cast<std::size_t>(t)].total();
    }

    std::uint64_t messages(MsgType t) const
    {
        return msg_count_[static_cast<std::size_t>(t)].total();
    }

    std::uint64_t totalInterGpuBytes() const { return sum(inter_bytes_); }

    /** Messages fully delivered (arrival tick reached dispatch). */
    std::uint64_t messagesDelivered() const { return delivered_.total(); }

    /** The port of fabric link `link` (Fig. 12's per-link story). */
    const Port &port(std::uint32_t link) const { return *ports_[link]; }

    void reportStats(StatRecorder &r, const std::string &prefix) const;

    /**
     * Append the transport part of a watchdog diagnostic to `out`:
     * NIC backlogs, store-issue waiters, every non-empty port with its
     * credit state and blocked heads, and per-link fault/retry state.
     */
    void dumpDiagnostic(std::string &out, Tick now) const;

  private:
    /** Shared wiring for both constructors. */
    void init();

    /** Move NIC messages into the egress port while credits last, then
     *  wake store-issue waiters the drained backlog unblocks. */
    void feedNic(GpmId src);
    void drainInjectWaiters(GpmId src);

    /** Final-hop dispatch: account, observe, schedule the arrival,
     *  free the body's slot in `slab`. */
    void deliver(MessageSlab &slab, MsgHandle h, Tick arrival);

    /** The LP owning `link`'s unit (0 when unpartitioned). */
    std::uint32_t lpOf(std::uint32_t link) const
    {
        return lps_ ? lps_->lpOfGpm(fabric_.link(link).gpm) : 0;
    }
    Engine &engOf(std::uint32_t link)
    {
        return lps_ ? lps_->engine(lpOf(link)) : engine_;
    }
    MessageSlab &slabOfLp(std::uint32_t lp)
    {
        return slabs_[concurrent() ? lp : 0];
    }
    bool concurrent() const { return lps_ && lps_->concurrent(); }

    /** The hop after `link` for `m`: the next port's input, or the
     *  boundary channel when the hop crosses LPs. */
    Port::Route route(std::uint32_t link, const Message &m) const;
    /** The boundary channel carrying the hop from link `from` to link
     *  `to`, or null (serial, same LP, or not a cut-tier hop). */
    LpChannel *channel(std::uint32_t from, std::uint32_t to) const;
    /** Barrier hook: deliver channel outboxes, apply credits. */
    LpDrainResult drainChannels(Tick wend);
    /** Mean and peak utilization over tier `t`'s links. */
    std::pair<double, double> utilization(LinkTier t) const;

    static std::uint64_t
    sum(const LpCounter (&by_type)[kNumMsgTypes])
    {
        std::uint64_t total = 0;
        for (const LpCounter &c : by_type)
            total += c.total();
        return total;
    }

    Engine &engine_;
    LpDomain *lps_ = nullptr;
    const SystemConfig &cfg_;
    Fabric fabric_;

    /** Bodies of the messages in flight, one slab per LP in time-window
     *  runs (see slabOfLp); sized once, before the ports that hold
     *  references to them. */
    std::vector<MessageSlab> slabs_;

    /** One port per fabric link, by link index. Ports are non-movable
     *  (they hold an Engine&), hence unique_ptr. */
    std::vector<std::unique_ptr<Port>> ports_;

    /** Cross-LP boundary queues on the cut tier, [srcUnit * units +
     *  dstUnit]; null for pairs inside one LP, empty unless
     *  TimeWindow. */
    std::vector<std::unique_ptr<LpChannel>> channels_;

    /** Per-link fault injectors; built only when cfg.fault.active(), so
     *  fault-free runs carry no injector state at all. */
    std::unique_ptr<FaultPlan> faults_;

    /** One injection record per GPM. */
    std::vector<Nic> nics_;

    DeliveryHook delivery_hook_;

    // LP-sharded: injection accounting runs on the source LP, delivery
    // accounting on the destination LP.
    LpCounter intra_bytes_[kNumMsgTypes];
    LpCounter inter_bytes_[kNumMsgTypes];
    LpCounter inter_node_bytes_[kNumMsgTypes];
    LpCounter msg_count_[kNumMsgTypes];
    LpCounter delivered_;
};

} // namespace hmg

#endif // HMG_NOC_NETWORK_HH
