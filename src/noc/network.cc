#include "noc/network.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "noc/lp_channel.hh"

namespace hmg
{

Network::Network(Engine &engine, const SystemConfig &cfg)
    : engine_(engine), cfg_(cfg)
{
    init();
}

Network::Network(LpDomain &lps, const SystemConfig &cfg)
    : engine_(lps.engine(0)), lps_(&lps), cfg_(cfg)
{
    init();
    if (concurrent())
        lps.setDrainHook(
            [this](Tick wend) { return drainChannels(wend); });
}

Network::~Network() = default;

Engine &
Network::engOfGpm(GpmId g)
{
    return lps_ ? lps_->engineOfGpm(g) : engine_;
}

Engine &
Network::engOfGpu(GpuId u)
{
    return lps_ ? lps_->engine(lpOfGpu(u)) : engine_;
}

Engine &
Network::engOfNode(NodeId n)
{
    return engOfGpu(cfg_.gpuId(n, 0));
}

std::uint32_t
Network::lpOfGpm(GpmId g) const
{
    return lps_ ? lps_->lpOfGpm(g) : 0;
}

std::uint32_t
Network::lpOfGpu(GpuId u) const
{
    return lpOfGpm(cfg_.gpmId(u, 0));
}

std::uint32_t
Network::lpOfNode(NodeId n) const
{
    return lpOfGpu(cfg_.gpuId(n, 0));
}

LpChannel *
Network::channel(GpuId src, GpuId dst) const
{
    if (xlp_.empty())
        return nullptr;
    return xlp_[std::size_t{src} * cfg_.numGpus + dst].get();
}

LpChannel *
Network::nodeChannel(NodeId src, NodeId dst) const
{
    if (xlp_node_.empty())
        return nullptr;
    return xlp_node_[std::size_t{src} * cfg_.numNodes + dst].get();
}

void
Network::init()
{
    const SystemConfig &cfg = cfg_;
    const double gpm_bpc = cfg.intraGpuPortBytesPerCycle();
    const double gpu_bpc = cfg.interGpuPortBytesPerCycle();
    const double node_bpc = cfg.interNodePortBytesPerCycle();
    const Tick intra_half = cfg.intraGpuHopLatency / 2;
    const Tick intra_rest = cfg.intraGpuHopLatency - intra_half;
    const Tick inter_half = cfg.interGpuHopLatency / 2;
    const Tick inter_rest = cfg.interGpuHopLatency - inter_half;
    const Tick node_half = cfg.interNodeHopLatency / 2;
    const Tick node_rest = cfg.interNodeHopLatency - node_half;
    const std::uint32_t locals = cfg.gpmsPerGpu;
    slabs_.resize(concurrent() ? lps_->numLps() : 1);

    // In TimeWindow mode a multi-node machine must be cut at node
    // boundaries (sim/lp.cc clamps its plans accordingly): the node
    // uplinks are the only links the boundary channels intercept, so a
    // node split across LPs would push into another LP's ports.
    if (concurrent() && multiNode())
        for (std::uint32_t n = 0; n < cfg.numNodes; ++n)
            for (std::uint32_t lg = 1; lg < cfg.gpusPerNode(); ++lg)
                hmg_assert(lpOfGpu(cfg.gpuId(n, lg)) == lpOfNode(n) &&
                           "TimeWindow LP cuts must follow node "
                           "boundaries on multi-node machines");

    // Credit pools are sized to (at least twice) the bandwidth-delay
    // product of the link FEEDING the queue: after a pop returns a
    // credit upstream, the refill takes a full hop latency to arrive,
    // so a smaller pool would idle the wire on every credit round trip
    // (see noc/port.hh). The floor keeps short-latency hops from
    // degenerating to one-message lockstep.
    const std::uint64_t floor_bytes =
        std::uint64_t{cfg.nocPortQueueCapacity} *
        (cfg.msgHeaderBytes + cfg.cacheLineBytes);
    auto pool = [&](double drain_bpc, Tick feed_latency) {
        // +8 cycles of slack for the feeder's serialization and the
        // integer rounding of arrival ticks.
        const auto bdp = static_cast<std::uint64_t>(
            drain_bpc * static_cast<double>(feed_latency + 8));
        return std::max(floor_bytes, 2 * bdp);
    };

    // A GPM's egress is fed only by its NIC queue (zero latency); its
    // ingress has one input per same-GPU sibling plus one for the
    // inter-GPU switch (fed across the long switch->GPM hop). Every
    // port is bound to the engine of the LP that owns its GPM/GPU.
    for (std::uint32_t g = 0; g < cfg.totalGpms(); ++g) {
        MessageSlab &slab = slabOfLp(lpOfGpm(g));
        gpm_egress_.push_back(std::make_unique<Port>(
            engOfGpm(g), slab, gpm_bpc, intra_half, /*num_inputs=*/1,
            pool(gpm_bpc, 0)));
        gpm_ingress_.push_back(std::make_unique<Port>(
            engOfGpm(g), slab, gpm_bpc, intra_rest, locals + 1,
            pool(gpm_bpc, inter_rest)));
    }
    // A GPU's switch egress is fed by its local GPMs; its switch ingress
    // by the other GPUs' egresses (slot = source GPU id) and — on a
    // multi-node machine — by its node's switch ingress for cross-node
    // traffic (one slot per remote source node, numGpus + srcNode). In
    // TimeWindow mode the pool of whichever ingress sits behind the
    // boundary channels is enlarged by their extra credit-return round
    // trip — up to two windows (2 * lookahead) on top of the link
    // flight — so a saturated cross-LP link still runs at full
    // bandwidth. Channels intercept the inter-GPU switch hop on
    // single-node machines and the node uplinks otherwise.
    const Tick xlp_slack =
        (concurrent() && !multiNode()) ? 2 * lps_->lookahead() : 0;
    const Tick xlp_node_slack =
        (concurrent() && multiNode()) ? 2 * lps_->lookahead() : 0;
    const std::uint32_t gpu_in_slots =
        multiNode() ? cfg.numGpus + cfg.numNodes : cfg.numGpus;
    for (std::uint32_t u = 0; u < cfg.numGpus; ++u) {
        MessageSlab &slab = slabOfLp(lpOfGpu(u));
        gpu_egress_.push_back(std::make_unique<Port>(
            engOfGpu(u), slab, gpu_bpc, inter_half, locals,
            pool(gpu_bpc, intra_half)));
        gpu_ingress_.push_back(std::make_unique<Port>(
            engOfGpu(u), slab, gpu_bpc, inter_rest, gpu_in_slots,
            pool(gpu_bpc, inter_half + xlp_slack)));
    }

    // The node uplink pair: egress fed by the node's GPU switch
    // egresses (across the GPU->switch leg), ingress fed by the other
    // nodes' uplinks (across the first half of the inter-node hop). A
    // cross-node transfer therefore pays interGpuHopLatency +
    // interNodeHopLatency of wire on top of queueing.
    if (multiNode()) {
        for (std::uint32_t n = 0; n < cfg.numNodes; ++n) {
            MessageSlab &slab = slabOfLp(lpOfNode(n));
            node_egress_.push_back(std::make_unique<Port>(
                engOfNode(n), slab, node_bpc, node_half,
                cfg.gpusPerNode(), pool(node_bpc, inter_half)));
            node_ingress_.push_back(std::make_unique<Port>(
                engOfNode(n), slab, node_bpc, node_rest, cfg.numNodes,
                pool(node_bpc, node_half + xlp_node_slack)));
        }
    }

    // Cross-LP boundary channels, one per directed GPU (or node) pair
    // whose ends live in different LPs; each feeds the destination
    // ingress input the serial wiring would have used, with the same
    // credit pool mirrored on the source side.
    if (concurrent() && !multiNode()) {
        xlp_.resize(std::size_t{cfg.numGpus} * cfg.numGpus);
        for (std::uint32_t su = 0; su < cfg.numGpus; ++su) {
            for (std::uint32_t du = 0; du < cfg.numGpus; ++du) {
                if (su == du || lpOfGpu(su) == lpOfGpu(du))
                    continue;
                xlp_[std::size_t{su} * cfg.numGpus + du] =
                    std::make_unique<LpChannel>(
                        *gpu_ingress_[du], su,
                        gpu_ingress_[du]->capacityBytes(),
                        slabOfLp(lpOfGpu(su)), slabOfLp(lpOfGpu(du)));
            }
        }
    }
    if (concurrent() && multiNode()) {
        xlp_node_.resize(std::size_t{cfg.numNodes} * cfg.numNodes);
        for (std::uint32_t sn = 0; sn < cfg.numNodes; ++sn) {
            for (std::uint32_t dn = 0; dn < cfg.numNodes; ++dn) {
                if (sn == dn || lpOfNode(sn) == lpOfNode(dn))
                    continue;
                xlp_node_[std::size_t{sn} * cfg.numNodes + dn] =
                    std::make_unique<LpChannel>(
                        *node_ingress_[dn], sn,
                        node_ingress_[dn]->capacityBytes(),
                        slabOfLp(lpOfNode(sn)), slabOfLp(lpOfNode(dn)));
            }
        }
    }

    // Routing. The input index a message occupies at each hop is a pure
    // function of (src, dst), so a given pair contends in one queue per
    // hop and its delivery order stays FIFO (see noc/port.hh).
    for (std::uint32_t g = 0; g < cfg.totalGpms(); ++g) {
        gpm_egress_[g]->setRoute([this](const Message &m) -> Port::Route {
            if (sameGpu(m.src, m.dst))
                return {gpm_ingress_[m.dst].get(), cfg_.localGpmOf(m.src)};
            return {gpu_egress_[cfg_.gpuOf(m.src)].get(),
                    cfg_.localGpmOf(m.src)};
        });
        gpm_egress_[g]->setUpstream(0, [this, g]() { feedNic(g); });

        gpm_ingress_[g]->setDeliver(
            [this, slab = &slabOfLp(lpOfGpm(g))](MsgHandle h, Tick at) {
                deliver(*slab, h, at);
            });
        const GpuId u = cfg.gpuOf(g);
        for (std::uint32_t l = 0; l < locals; ++l) {
            const GpmId sib = cfg.gpmId(u, l);
            gpm_ingress_[g]->setUpstream(
                l, [this, sib]() { gpm_egress_[sib]->pump(); });
        }
        gpm_ingress_[g]->setUpstream(
            locals, [this, u]() { gpu_ingress_[u]->pump(); });
    }
    for (std::uint32_t u = 0; u < cfg.numGpus; ++u) {
        gpu_egress_[u]->setRoute([this](const Message &m) -> Port::Route {
            const GpuId su = cfg_.gpuOf(m.src);
            const GpuId du = cfg_.gpuOf(m.dst);
            // Cross-node traffic climbs into the node uplink; the
            // branch is never taken on single-node machines (inject()
            // rejects nothing, but sameNode() is then always true).
            if (!sameNode(m.src, m.dst))
                return {node_egress_[cfg_.nodeOf(su)].get(),
                        cfg_.localGpuOf(su)};
            // Cross-LP switch hop: dispatch into the boundary channel
            // (drained at the window barrier) instead of pushing into
            // another LP's port. channel() is null in serial,
            // deterministic-merge and same-LP cases.
            if (LpChannel *ch = channel(su, du))
                return {nullptr, 0, ch};
            return {gpu_ingress_[du].get(), su};
        });
        for (std::uint32_t l = 0; l < locals; ++l) {
            const GpmId src = cfg.gpmId(u, l);
            gpu_egress_[u]->setUpstream(
                l, [this, src]() { gpm_egress_[src]->pump(); });
        }

        gpu_ingress_[u]->setRoute([this](const Message &m) -> Port::Route {
            return {gpm_ingress_[m.dst].get(), cfg_.gpmsPerGpu};
        });
        for (std::uint32_t su = 0; su < cfg.numGpus; ++su) {
            if (LpChannel *ch = channel(su, u)) {
                // Cross-LP credit return: note the pop; the channel
                // carries the credit back to the source LP at the next
                // barrier (delay-only vs the serial same-tick re-pump).
                gpu_ingress_[u]->setUpstream(su,
                                             [ch]() { ch->onDstPop(); });
            } else {
                gpu_ingress_[u]->setUpstream(
                    su, [this, su]() { gpu_egress_[su]->pump(); });
            }
        }
        // Cross-node arrivals enter at one slot per source node, fed
        // by the local node's switch ingress.
        if (multiNode()) {
            const NodeId un = cfg.nodeOf(u);
            for (std::uint32_t sn = 0; sn < cfg.numNodes; ++sn)
                gpu_ingress_[u]->setUpstream(
                    cfg.numGpus + sn,
                    [this, un]() { node_ingress_[un]->pump(); });
        }
    }
    for (std::uint32_t n = 0; multiNode() && n < cfg.numNodes; ++n) {
        node_egress_[n]->setRoute(
            [this](const Message &m) -> Port::Route {
                const NodeId sn = cfg_.nodeOfGpm(m.src);
                const NodeId dn = cfg_.nodeOfGpm(m.dst);
                // Cross-LP node hop: the boundary channel feeds the
                // destination node's switch ingress at the barrier.
                if (LpChannel *ch = nodeChannel(sn, dn))
                    return {nullptr, 0, ch};
                return {node_ingress_[dn].get(), sn};
            });
        for (std::uint32_t lg = 0; lg < cfg.gpusPerNode(); ++lg) {
            const GpuId src = cfg.gpuId(n, lg);
            node_egress_[n]->setUpstream(
                lg, [this, src]() { gpu_egress_[src]->pump(); });
        }

        node_ingress_[n]->setRoute(
            [this](const Message &m) -> Port::Route {
                const GpuId du = cfg_.gpuOf(m.dst);
                return {gpu_ingress_[du].get(),
                        cfg_.numGpus + cfg_.nodeOfGpm(m.src)};
            });
        for (std::uint32_t sn = 0; sn < cfg.numNodes; ++sn) {
            if (LpChannel *ch = nodeChannel(sn, n)) {
                node_ingress_[n]->setUpstream(
                    sn, [ch]() { ch->onDstPop(); });
            } else {
                node_ingress_[n]->setUpstream(sn, [this, sn]() {
                    node_egress_[sn]->pump();
                });
            }
        }
    }

    nic_.resize(cfg.totalGpms());
    inject_waiters_.resize(cfg.totalGpms());
    draining_waiters_.resize(cfg.totalGpms(), false);

    // Fault injection (DESIGN.md §11): attach one injector per link
    // direction. The inter-GPU switch links are the interesting (and
    // default) targets — they are the fabric the paper's NVLink story
    // is about; cfg.fault.intraGpu extends injection to the crossbars.
    if (cfg.fault.active()) {
        faults_ = std::make_unique<FaultPlan>(cfg);
        for (std::uint32_t u = 0; u < cfg.numGpus; ++u) {
            gpu_egress_[u]->setFault(faults_->gpuEgress(u));
            gpu_ingress_[u]->setFault(faults_->gpuIngress(u));
        }
        if (cfg.fault.intraGpu) {
            for (std::uint32_t g = 0; g < cfg.totalGpms(); ++g) {
                gpm_egress_[g]->setFault(faults_->gpmEgress(g));
                gpm_ingress_[g]->setFault(faults_->gpmIngress(g));
            }
        }
    }
}

void
Network::inject(Message m)
{
    hmg_assert(m.src < cfg_.totalGpms() && m.dst < cfg_.totalGpms());
    hmg_assert(m.src != m.dst);
    // Partitioned runs: only the LP that owns the source GPM may inject
    // on its behalf (the NIC queue and egress port are LP-affine).
    hmg_assert(!concurrent() ||
               LpDomain::currentLp() == lps_->lpOfGpm(m.src));

    m.bytes = msgBytes(cfg_, m.type);
    const auto ti = static_cast<std::size_t>(m.type);
    // Byte/message accounting happens at injection: the traffic exists
    // the moment the protocol emits it, whatever the fabric later does
    // with it. (Per-hop occupancy is tracked by the ports themselves.)
    ++msg_count_[ti];
    intra_bytes_[ti] += m.bytes;
    if (!sameGpu(m.src, m.dst))
        inter_bytes_[ti] += m.bytes;
    if (!sameNode(m.src, m.dst))
        inter_node_bytes_[ti] += m.bytes;

    const GpmId src = m.src;
    const std::uint32_t bytes = m.bytes;
    const MsgHandle h = slabOfLp(lpOfGpm(src)).put(std::move(m));
    nic_[src].push_back(MsgRef{0, h, bytes});
    feedNic(src);
}

void
Network::feedNic(GpmId src)
{
    auto &nic = nic_[src];
    Port &egress = *gpm_egress_[src];
    const Tick now = engOfGpm(src).now();
    while (!nic.empty() && egress.canAccept(0)) {
        MsgRef m = nic.front();
        nic.pop_front();
        m.ready = now;
        egress.push(0, m);
    }
    drainInjectWaiters(src);
}

void
Network::whenInjectable(GpmId src, InjectWaiter cb)
{
    if (injectable(src)) {
        cb.consume();
        return;
    }
    inject_waiters_[src].push_back(std::move(cb));
}

void
Network::drainInjectWaiters(GpmId src)
{
    if (draining_waiters_[src])
        return;
    draining_waiters_[src] = true;
    auto &waiters = inject_waiters_[src];
    while (!waiters.empty() &&
           injectionBacklog(src) < cfg_.nocInjectionBacklogLimit) {
        InjectWaiter cb = std::move(waiters.front());
        waiters.pop_front();
        cb.consume();
    }
    draining_waiters_[src] = false;
}

void
Network::deliver(MessageSlab &slab, MsgHandle h, Tick arrival)
{
    ++delivered_;
    Message &m = slab.at(h);
    if (delivery_hook_)
        delivery_hook_(m, arrival);
    if (m.onArrival) {
        // The final hop runs on the destination LP's engine; schedule
        // there. Engine::current() is that engine inside a run loop and
        // null during setup/drain, where engine_ (LP 0) is correct.
        Engine *e = Engine::current();
        (e ? *e : engine_).scheduleAt(arrival, std::move(m.onArrival));
    }
    slab.release(h);
}

LpDrainResult
Network::drainChannels(Tick wend)
{
    LpDrainResult res;
    for (std::uint32_t su = 0; su < cfg_.numGpus; ++su) {
        for (std::uint32_t du = 0; du < cfg_.numGpus; ++du) {
            LpChannel *ch = channel(su, du);
            if (!ch)
                continue;
            auto [delivered, credits] = ch->drain();
            res.delivered += delivered;
            res.credits += credits;
            if (delivered == 0)
                ++res.nulls; // idle channel == a null message's worth
                             // of "nothing before wend + lookahead"
            if (credits > 0) {
                // Returned credits may unblock heads parked at the
                // source GPU's switch egress; re-arbitrate it at the
                // window edge, on its own LP's engine.
                Port *eg = gpu_egress_[su].get();
                engOfGpu(su).scheduleAt(wend, [eg]() { eg->pump(); });
            }
        }
    }
    for (std::uint32_t sn = 0; sn < cfg_.numNodes; ++sn) {
        for (std::uint32_t dn = 0; dn < cfg_.numNodes; ++dn) {
            LpChannel *ch = nodeChannel(sn, dn);
            if (!ch)
                continue;
            auto [delivered, credits] = ch->drain();
            res.delivered += delivered;
            res.credits += credits;
            if (delivered == 0)
                ++res.nulls;
            if (credits > 0) {
                Port *eg = node_egress_[sn].get();
                engOfNode(sn).scheduleAt(wend, [eg]() { eg->pump(); });
            }
        }
    }
    return res;
}

std::uint64_t
Network::totalInterGpuBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &b : inter_bytes_)
        sum += b.total();
    return sum;
}

std::uint64_t
Network::totalIntraGpuBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &b : intra_bytes_)
        sum += b.total();
    return sum;
}

std::uint64_t
Network::totalInterNodeBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &b : inter_node_bytes_)
        sum += b.total();
    return sum;
}

double
Network::interGpuUtilizationAvg() const
{
    double sum = 0;
    for (const auto &p : gpu_egress_)
        sum += p->utilization();
    for (const auto &p : gpu_ingress_)
        sum += p->utilization();
    return sum / static_cast<double>(gpu_egress_.size() +
                                     gpu_ingress_.size());
}

double
Network::interGpuUtilizationPeak() const
{
    double peak = 0;
    for (const auto &p : gpu_egress_)
        peak = std::max(peak, p->utilization());
    for (const auto &p : gpu_ingress_)
        peak = std::max(peak, p->utilization());
    return peak;
}

double
Network::interNodeUtilizationAvg() const
{
    if (node_egress_.empty())
        return 0;
    double sum = 0;
    for (const auto &p : node_egress_)
        sum += p->utilization();
    for (const auto &p : node_ingress_)
        sum += p->utilization();
    return sum / static_cast<double>(node_egress_.size() +
                                     node_ingress_.size());
}

double
Network::interNodeUtilizationPeak() const
{
    double peak = 0;
    for (const auto &p : node_egress_)
        peak = std::max(peak, p->utilization());
    for (const auto &p : node_ingress_)
        peak = std::max(peak, p->utilization());
    return peak;
}

void
Network::reportStats(StatRecorder &r, const std::string &prefix) const
{
    for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
        auto t = static_cast<MsgType>(i);
        if (msg_count_[i].total() == 0)
            continue;
        std::string base = prefix + "." + toString(t);
        r.record(base + ".msgs",
                 static_cast<double>(msg_count_[i].total()));
        r.record(base + ".intra_bytes",
                 static_cast<double>(intra_bytes_[i].total()));
        r.record(base + ".inter_bytes",
                 static_cast<double>(inter_bytes_[i].total()));
    }
    r.record(prefix + ".total_intra_bytes",
             static_cast<double>(totalIntraGpuBytes()));
    r.record(prefix + ".total_inter_bytes",
             static_cast<double>(totalInterGpuBytes()));
    r.record(prefix + ".delivered",
             static_cast<double>(delivered_.total()));

    for (std::uint32_t g = 0; g < cfg_.totalGpms(); ++g) {
        const std::string base =
            prefix + ".port.gpm" + std::to_string(g);
        gpm_egress_[g]->reportStats(r, base + ".egress");
        gpm_ingress_[g]->reportStats(r, base + ".ingress");
    }
    for (std::uint32_t u = 0; u < cfg_.numGpus; ++u) {
        const std::string base =
            prefix + ".port.gpu" + std::to_string(u);
        gpu_egress_[u]->reportStats(r, base + ".egress");
        gpu_ingress_[u]->reportStats(r, base + ".ingress");
    }
    r.record(prefix + ".inter_gpu.util_avg", interGpuUtilizationAvg());
    r.record(prefix + ".inter_gpu.util_peak", interGpuUtilizationPeak());

    // Node-tier keys exist only on multi-node machines so single-node
    // stat maps stay bit-identical to the pre-node-tier transport.
    if (multiNode()) {
        r.record(prefix + ".total_inter_node_bytes",
                 static_cast<double>(totalInterNodeBytes()));
        for (std::uint32_t n = 0; n < cfg_.numNodes; ++n) {
            const std::string base =
                prefix + ".port.node" + std::to_string(n);
            node_egress_[n]->reportStats(r, base + ".egress");
            node_ingress_[n]->reportStats(r, base + ".ingress");
        }
        r.record(prefix + ".inter_node.util_avg",
                 interNodeUtilizationAvg());
        r.record(prefix + ".inter_node.util_peak",
                 interNodeUtilizationPeak());
    }

    // Only when a plan is active: an inert FaultConfig must add zero
    // stat keys so fault-free stat maps stay bit-identical to pre-fault
    // baselines (tests/fault_test.cc).
    if (faults_)
        faults_->reportStats(r, prefix + ".fault");
}

void
Network::dumpDiagnostic(std::string &out, Tick now) const
{
    std::uint64_t backlog = 0;
    std::uint64_t waiters = 0;
    for (std::uint32_t g = 0; g < cfg_.totalGpms(); ++g) {
        backlog += nic_[g].size();
        waiters += inject_waiters_[g].size();
        if (!nic_[g].empty() || !inject_waiters_[g].empty())
            out += "  nic gpm" + std::to_string(g) + ": " +
                   std::to_string(nic_[g].size()) + " parked, " +
                   std::to_string(inject_waiters_[g].size()) +
                   " store-issue waiters\n";
    }
    out += "  delivered " + std::to_string(delivered_.total()) +
           " messages; NIC backlog " + std::to_string(backlog) +
           ", waiters " + std::to_string(waiters) + "\n";
    for (std::uint32_t g = 0; g < cfg_.totalGpms(); ++g) {
        const std::string base = "gpm" + std::to_string(g);
        gpm_egress_[g]->dumpState(out, base + ".egress");
        gpm_ingress_[g]->dumpState(out, base + ".ingress");
    }
    for (std::uint32_t u = 0; u < cfg_.numGpus; ++u) {
        const std::string base = "gpu" + std::to_string(u);
        gpu_egress_[u]->dumpState(out, base + ".egress");
        gpu_ingress_[u]->dumpState(out, base + ".ingress");
    }
    for (std::uint32_t n = 0;
         n < static_cast<std::uint32_t>(node_egress_.size()); ++n) {
        const std::string base = "node" + std::to_string(n);
        node_egress_[n]->dumpState(out, base + ".egress");
        node_ingress_[n]->dumpState(out, base + ".ingress");
    }
    if (faults_)
        faults_->describe(out, now);
}

} // namespace hmg
