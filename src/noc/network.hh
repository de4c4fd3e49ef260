/**
 * @file
 * The two-tier interconnect: intra-GPU crossbars and the inter-GPU
 * switch (Fig. 1 / Fig. 4 of the paper) — plus an optional third tier
 * of node switches when the topology declares numNodes > 1.
 *
 * Each GPM owns a pair of directed ports (egress/ingress) into its
 * GPU's crossbar, sized so the per-GPU aggregate matches Table II's
 * 2 TB/s. Each GPU owns a pair of directed ports into the NVSwitch
 * fabric at 200 GB/s each. With multiple nodes, each node additionally
 * owns a pair of directed uplink ports into the inter-node switch
 * fabric (interNodeGBpsPerLink each way). A GPM-to-GPM transfer
 * traverses:
 *
 *   same GPM:   nothing (handled locally by the caller)
 *   same GPU:   gpmEgress[src] -> gpmIngress[dst]
 *   cross GPU:  gpmEgress[src] -> gpuEgress[srcGpu]
 *               -> gpuIngress[dstGpu] -> gpmIngress[dst]
 *   cross node: gpmEgress[src] -> gpuEgress[srcGpu]
 *               -> nodeEgress[srcNode] -> nodeIngress[dstNode]
 *               -> gpuIngress[dstGpu] -> gpmIngress[dst]
 *
 * On a single-node machine the node tier is not built at all — no
 * ports, no stats keys, no routing branches taken — so the paper's
 * 4x4 configuration is bit-identical to the pre-node-tier transport.
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
#include <vector>

#include "common/config.hh"
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
     * owning its GPM/GPU. In TimeWindow mode the inter-GPU links that
     * cross LPs dispatch into LpChannels drained at the window barrier
     * (the hook is registered here); deterministic-merge and one-LP
     * plans keep the exact serial wiring.
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

    /** True when both GPMs sit on the same node (always, single-node). */
    bool sameNode(GpmId a, GpmId b) const
    {
        return cfg_.nodeOfGpm(a) == cfg_.nodeOfGpm(b);
    }

    // --- injection backpressure (SM store-issue throttle) ---

    /** Messages parked in `src`'s NIC queue awaiting egress credit. */
    std::uint32_t injectionBacklog(GpmId src) const
    {
        return static_cast<std::uint32_t>(nic_[src].size());
    }

    /** May `src` inject without exceeding the configured backlog? */
    bool injectable(GpmId src) const
    {
        return injectionBacklog(src) < cfg_.nocInjectionBacklogLimit &&
               inject_waiters_[src].empty();
    }

    using InjectWaiter = SmallCallback<kCompletionCbBytes, void()>;

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

    /** Bytes of type `t` that crossed inter-node uplinks (0 when
     *  single-node). */
    std::uint64_t interNodeBytes(MsgType t) const
    {
        return inter_node_bytes_[static_cast<std::size_t>(t)].total();
    }

    std::uint64_t totalInterGpuBytes() const;
    std::uint64_t totalIntraGpuBytes() const;
    std::uint64_t totalInterNodeBytes() const;

    /** Messages fully delivered (arrival tick reached dispatch). */
    std::uint64_t messagesDelivered() const { return delivered_.total(); }

    // --- per-link observability (Fig. 12's oversubscription story) ---

    const Port &gpmEgressPort(GpmId g) const { return *gpm_egress_[g]; }
    const Port &gpmIngressPort(GpmId g) const { return *gpm_ingress_[g]; }
    const Port &gpuEgressPort(GpuId u) const { return *gpu_egress_[u]; }
    const Port &gpuIngressPort(GpuId u) const { return *gpu_ingress_[u]; }
    const Port &nodeEgressPort(NodeId n) const { return *node_egress_[n]; }
    const Port &nodeIngressPort(NodeId n) const
    {
        return *node_ingress_[n];
    }

    /** Mean utilization across the 2N inter-GPU link directions. */
    double interGpuUtilizationAvg() const;
    /** Highest utilization among the inter-GPU link directions. */
    double interGpuUtilizationPeak() const;
    /** Same across the node uplink directions (0 when single-node). */
    double interNodeUtilizationAvg() const;
    double interNodeUtilizationPeak() const;

    void reportStats(StatRecorder &r, const std::string &prefix) const;

    /** The fault plan, or null when cfg.fault is inert. */
    const FaultPlan *faultPlan() const { return faults_.get(); }

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

    // --- per-LP engine resolution (all return engine_ when unpartitioned)
    Engine &engOfGpm(GpmId g);
    Engine &engOfGpu(GpuId u);
    Engine &engOfNode(NodeId n);
    std::uint32_t lpOfGpm(GpmId g) const;
    std::uint32_t lpOfGpu(GpuId u) const;
    std::uint32_t lpOfNode(NodeId n) const;
    /** The message slab of LP `lp` (the only one when not concurrent). */
    MessageSlab &slabOfLp(std::uint32_t lp)
    {
        return slabs_[concurrent() ? lp : 0];
    }
    bool concurrent() const { return lps_ && lps_->concurrent(); }
    bool multiNode() const { return cfg_.numNodes > 1; }

    /** Barrier hook: deliver channel outboxes, apply credits. */
    LpDrainResult drainChannels(Tick wend);
    LpChannel *channel(GpuId src, GpuId dst) const;
    LpChannel *nodeChannel(NodeId src, NodeId dst) const;

    Engine &engine_;
    LpDomain *lps_ = nullptr;
    const SystemConfig &cfg_;

    /** Bodies of the messages in flight, one slab per LP in time-window
     *  runs (see slabOfLp); sized once, before the ports that hold
     *  references to them. */
    std::vector<MessageSlab> slabs_;

    // Ports are non-movable (they hold an Engine&), hence unique_ptr.
    std::vector<std::unique_ptr<Port>> gpm_egress_;
    std::vector<std::unique_ptr<Port>> gpm_ingress_;
    std::vector<std::unique_ptr<Port>> gpu_egress_;
    std::vector<std::unique_ptr<Port>> gpu_ingress_;
    /** Node uplink ports; empty on single-node machines. */
    std::vector<std::unique_ptr<Port>> node_egress_;
    std::vector<std::unique_ptr<Port>> node_ingress_;

    /** Cross-LP boundary queues, [srcGpu * numGpus + dstGpu]; null for
     *  pairs inside one LP. TimeWindow mode, single-node only (multi-
     *  node machines cut at node boundaries and use xlp_node_). */
    std::vector<std::unique_ptr<LpChannel>> xlp_;
    /** Cross-LP boundary queues at the node tier, [srcNode * numNodes +
     *  dstNode]. TimeWindow mode, multi-node only. */
    std::vector<std::unique_ptr<LpChannel>> xlp_node_;

    /** Per-link fault injectors; built only when cfg.fault.active(), so
     *  fault-free runs carry no injector state at all. */
    std::unique_ptr<FaultPlan> faults_;

    /** Per-GPM injection queues (unbounded; see file comment). Each is
     *  touched only by its owning LP's thread. */
    std::vector<std::deque<MsgRef>> nic_;
    std::vector<std::deque<InjectWaiter>> inject_waiters_;
    /** Not vector<bool>: per-GPM flags must not share packed bits when
     *  neighbouring GPMs live on different LP threads. */
    std::vector<std::uint8_t> draining_waiters_;

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
