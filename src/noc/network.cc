#include "noc/network.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "noc/lp_channel.hh"

namespace hmg
{

Network::Network(Engine &engine, const SystemConfig &cfg)
    : engine_(engine), cfg_(cfg), fabric_(cfg)
{
    init();
}

Network::Network(LpDomain &lps, const SystemConfig &cfg)
    : engine_(lps.engine(0)),
      lps_(&lps),
      cfg_(cfg),
      fabric_(cfg, lps.concurrent())
{
    init();
    if (concurrent())
        lps.setDrainHook(
            [this](Tick wend) { return drainChannels(wend); });
}

Network::~Network() = default;

LpChannel *
Network::channel(std::uint32_t from, std::uint32_t to) const
{
    if (channels_.empty() || !fabric_.crossesCut(from))
        return nullptr;
    const std::uint32_t units = fabric_.tier(fabric_.cutTier()).units;
    return channels_[std::size_t{fabric_.link(from).unit} * units +
                     fabric_.link(to).unit]
        .get();
}

Port::Route
Network::route(std::uint32_t link, const Message &m) const
{
    const FabricHop h = fabric_.next(link, m.src, m.dst);
    // Cross-LP hop: dispatch into the boundary channel (drained at the
    // window barrier) instead of pushing into another LP's port.
    if (LpChannel *ch = channel(link, h.link))
        return {nullptr, 0, ch};
    return {ports_[h.link].get(), h.input};
}

void
Network::init()
{
    const std::vector<FabricLink> &links = fabric_.links();
    const auto num_links = static_cast<std::uint32_t>(links.size());
    slabs_.resize(concurrent() ? lps_->numLps() : 1);

    // Every port is bound to the engine and slab of the LP owning its
    // link's unit; rates, latencies, inputs and pools are the fabric's.
    ports_.reserve(num_links);
    for (std::uint32_t l = 0; l < num_links; ++l) {
        const FabricLink &k = links[l];
        ports_.push_back(std::make_unique<Port>(
            engOf(l), slabOfLp(lpOf(l)), k.bytesPerCycle, k.latency,
            k.inputs, k.poolBytes));
    }

    // Cross-LP boundary channels, one per directed pair of cut units
    // whose ends live in different LPs; each feeds the destination
    // ingress input the serial wiring would have used, with the same
    // credit pool mirrored on the source side.
    if (concurrent()) {
        const LinkTier cut = fabric_.cutTier();
        const std::uint32_t units = fabric_.tier(cut).units;
        channels_.resize(std::size_t{units} * units);
        for (std::uint32_t su = 0; su < units; ++su) {
            for (std::uint32_t du = 0; du < units; ++du) {
                const std::uint32_t e =
                    fabric_.linkOf(cut, LinkDir::Egress, su);
                const std::uint32_t i =
                    fabric_.linkOf(cut, LinkDir::Ingress, du);
                if (su == du || lpOf(e) == lpOf(i))
                    continue;
                const FabricHop h =
                    fabric_.next(e, links[e].gpm, links[i].gpm);
                channels_[std::size_t{su} * units + du] =
                    std::make_unique<LpChannel>(
                        *ports_[i], h.input, ports_[i]->capacityBytes(),
                        slabOfLp(lpOf(e)), slabOfLp(lpOf(i)));
            }
        }
    }

    // Routing and credit returns. The input index a message occupies at
    // each hop is a pure function of (src, dst), so a given pair
    // contends in one queue per hop and its delivery order stays FIFO
    // (see noc/port.hh). A GPM ingress is every route's last hop.
    for (std::uint32_t l = 0; l < num_links; ++l) {
        Port &p = *ports_[l];
        if (links[l].tier == LinkTier::Gpm &&
            links[l].dir == LinkDir::Ingress)
            p.setDeliver([this, slab = &slabOfLp(lpOf(l))](MsgHandle h,
                                                          Tick at) {
                deliver(*slab, h, at);
            });
        else
            p.setRoute(
                [this, l](const Message &m) { return route(l, m); });
        for (std::uint32_t in = 0; in < links[l].inputs; ++in) {
            const FabricFeeder f = fabric_.feeder(l, in);
            if (f.link == Fabric::kNic) {
                p.setUpstream(in, [this, g = f.nic]() { feedNic(g); });
            } else if (LpChannel *ch = channel(f.link, l)) {
                // Cross-LP credit return: note the pop; the channel
                // carries the credit back to the source LP at the next
                // barrier (delay-only vs the serial same-tick re-pump).
                p.setUpstream(in, [ch]() { ch->onDstPop(); });
            } else {
                p.setUpstream(in, [src = ports_[f.link].get()]() {
                    src->pump();
                });
            }
        }
    }

    nics_ = std::vector<Nic>(cfg_.totalGpms());

    // Fault injection (DESIGN.md §11): the plan holds one injector per
    // link it targets (the inter-GPU switch links, plus the crossbars
    // under cfg.fault.intraGpu) and null for the rest.
    if (cfg_.fault.active()) {
        faults_ = std::make_unique<FaultPlan>(cfg_, fabric_);
        for (std::uint32_t l = 0; l < num_links; ++l)
            ports_[l]->setFault(faults_->at(l));
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
    if (cfg_.nodeOfGpm(m.src) != cfg_.nodeOfGpm(m.dst))
        inter_node_bytes_[ti] += m.bytes;

    const GpmId src = m.src;
    const std::uint32_t bytes = m.bytes;
    const std::uint32_t entry = fabric_.entry(src).link;
    const MsgHandle h = slabOfLp(lpOf(entry)).put(std::move(m));
    nics_[src].queue.push_back(MsgRef{0, h, bytes});
    feedNic(src);
}

void
Network::feedNic(GpmId src)
{
    std::deque<MsgRef> &queue = nics_[src].queue;
    const FabricHop entry = fabric_.entry(src);
    Port &egress = *ports_[entry.link];
    const Tick now = engOf(entry.link).now();
    while (!queue.empty() && egress.canAccept(entry.input)) {
        MsgRef m = queue.front();
        queue.pop_front();
        m.ready = now;
        egress.push(entry.input, m);
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
    nics_[src].waiters.push_back(std::move(cb));
}

void
Network::drainInjectWaiters(GpmId src)
{
    Nic &nic = nics_[src];
    if (nic.draining)
        return;
    nic.draining = true;
    while (!nic.waiters.empty() &&
           injectionBacklog(src) < cfg_.nocInjectionBacklogLimit) {
        InjectWaiter cb = std::move(nic.waiters.front());
        nic.waiters.pop_front();
        cb.consume();
    }
    nic.draining = false;
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
    const LinkTier cut = fabric_.cutTier();
    const std::uint32_t units = fabric_.tier(cut).units;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        LpChannel *ch = channels_[i].get();
        if (!ch)
            continue;
        auto [delivered, credits] = ch->drain();
        res.delivered += delivered;
        res.credits += credits;
        if (delivered == 0)
            ++res.nulls; // idle channel == a null message's worth of
                         // "nothing before wend + lookahead"
        if (credits > 0) {
            // Returned credits may unblock heads parked at the source
            // unit's egress; re-arbitrate it at the window edge, on its
            // own LP's engine.
            const std::uint32_t e = fabric_.linkOf(
                cut, LinkDir::Egress, static_cast<std::uint32_t>(i / units));
            Port *eg = ports_[e].get();
            engOf(e).scheduleAt(wend, [eg]() { eg->pump(); });
        }
    }
    return res;
}

std::pair<double, double>
Network::utilization(LinkTier t) const
{
    // Egresses first, then ingresses: the summation order is part of
    // the recorded statistics.
    double sum = 0;
    double peak = 0;
    std::uint32_t n = 0;
    for (const LinkDir d : {LinkDir::Egress, LinkDir::Ingress}) {
        for (std::uint32_t u = 0; u < fabric_.tier(t).units; ++u, ++n) {
            const double x = ports_[fabric_.linkOf(t, d, u)]->utilization();
            sum += x;
            peak = std::max(peak, x);
        }
    }
    return {sum / static_cast<double>(n), peak};
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
             static_cast<double>(sum(intra_bytes_)));
    r.record(prefix + ".total_inter_bytes",
             static_cast<double>(sum(inter_bytes_)));
    r.record(prefix + ".delivered",
             static_cast<double>(delivered_.total()));

    for (std::size_t l = 0; l < ports_.size(); ++l)
        ports_[l]->reportStats(r, prefix + ".port." +
                                      fabric_.links()[l].name);
    const auto [gpu_avg, gpu_peak] = utilization(LinkTier::Gpu);
    r.record(prefix + ".inter_gpu.util_avg", gpu_avg);
    r.record(prefix + ".inter_gpu.util_peak", gpu_peak);

    // Node-tier keys exist only on multi-node machines so single-node
    // stat maps stay bit-identical to the pre-node-tier transport.
    if (fabric_.tier(LinkTier::Node).units > 0) {
        r.record(prefix + ".total_inter_node_bytes",
                 static_cast<double>(sum(inter_node_bytes_)));
        const auto [node_avg, node_peak] = utilization(LinkTier::Node);
        r.record(prefix + ".inter_node.util_avg", node_avg);
        r.record(prefix + ".inter_node.util_peak", node_peak);
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
        const Nic &nic = nics_[g];
        backlog += nic.queue.size();
        waiters += nic.waiters.size();
        if (!nic.queue.empty() || !nic.waiters.empty())
            out += "  nic gpm" + std::to_string(g) + ": " +
                   std::to_string(nic.queue.size()) + " parked, " +
                   std::to_string(nic.waiters.size()) +
                   " store-issue waiters\n";
    }
    out += "  delivered " + std::to_string(delivered_.total()) +
           " messages; NIC backlog " + std::to_string(backlog) +
           ", waiters " + std::to_string(waiters) + "\n";
    for (std::size_t l = 0; l < ports_.size(); ++l)
        ports_[l]->dumpState(out, fabric_.links()[l].name);
    if (faults_)
        faults_->describe(out, now);
}

} // namespace hmg
