/**
 * @file
 * Unit tests for message sizing and the per-hop transport layer: routing
 * latency, per-tier byte accounting, FIFO ordering, backpressure,
 * bandwidth saturation of the inter-GPU links, and how often a
 * message's closure is moved on its way.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hh"
#include "noc/message.hh"
#include "noc/network.hh"
#include "sim/engine.hh"

namespace hmg
{
namespace
{

/** Inject a message whose arrival stamps `*at` with the delivery tick. */
void
sendProbe(Engine &e, Network &net, GpmId src, GpmId dst, MsgType t,
          Tick *at)
{
    net.inject({.src = src,
                .dst = dst,
                .type = t,
                .onArrival = [&e, at]() { *at = e.now(); }});
}

TEST(Message, SizesCoverEveryType)
{
    SystemConfig cfg;
    // Control messages are one header; data-bearing messages add a full
    // cache line; RMWs add an operand word. Exhaustive by type so the
    // byte accounting of every figure rests on a checked definition.
    const std::uint32_t ctrl = cfg.ctrlMsgBytes;
    const std::uint32_t data = cfg.msgHeaderBytes + cfg.cacheLineBytes;
    const std::uint32_t rmw = cfg.ctrlMsgBytes + 8;
    for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
        const auto t = static_cast<MsgType>(i);
        std::uint32_t expect = ctrl;
        if (t == MsgType::ReadResp || t == MsgType::WriteThrough)
            expect = data;
        else if (t == MsgType::AtomicReq || t == MsgType::AtomicResp)
            expect = rmw;
        EXPECT_EQ(msgBytes(cfg, t), expect) << toString(t);
        EXPECT_EQ(carriesData(t), expect == data) << toString(t);
    }
    EXPECT_EQ(msgBytes(cfg, MsgType::ReadReq), 16u);
    EXPECT_EQ(msgBytes(cfg, MsgType::ReadResp), 144u);
    EXPECT_EQ(msgBytes(cfg, MsgType::AtomicReq), 24u);
}

TEST(Network, IntraGpuLatency)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    // GPM0 -> GPM1 (same GPU): ~intraGpuHopLatency + serialization.
    Tick a = 0;
    sendProbe(e, net, 0, 1, MsgType::ReadReq, &a);
    e.run();
    EXPECT_GE(a, cfg.intraGpuHopLatency);
    EXPECT_LE(a, cfg.intraGpuHopLatency + 4);
}

TEST(Network, InterGpuLatency)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    // GPM0 (GPU0) -> GPM4 (GPU1): intra + inter hop latency.
    Tick a = 0;
    sendProbe(e, net, 0, 4, MsgType::ReadReq, &a);
    e.run();
    EXPECT_GE(a, cfg.intraGpuHopLatency + cfg.interGpuHopLatency);
    EXPECT_LE(a, cfg.intraGpuHopLatency + cfg.interGpuHopLatency + 6);
}

/** Arrival closure that counts its own moves and stamps the tick. */
struct MoveCounter
{
    Engine *e;
    int *moves;
    Tick *at;

    MoveCounter(Engine *e_, int *moves_, Tick *at_)
        : e(e_), moves(moves_), at(at_)
    {
    }
    MoveCounter(MoveCounter &&o) noexcept : e(o.e), moves(o.moves), at(o.at)
    {
        ++*moves;
    }
    MoveCounter(const MoveCounter &) = delete;

    void operator()() const { *at = e->now(); }
};

TEST(Network, ArrivalClosureMovesThreeTimesOnAnyRoute)
{
    // Into the Message's callback, into the slab at injection, into the
    // engine at delivery: the queues in between carry only a handle.
    SystemConfig cfg;
    for (GpmId dst : {GpmId{1}, GpmId{4}}) { // same GPU, cross GPU
        Engine e;
        Network net(e, cfg);
        int moves = 0;
        Tick at = 0;
        net.inject({.src = 0,
                    .dst = dst,
                    .type = MsgType::ReadResp,
                    .onArrival = MoveCounter(&e, &moves, &at)});
        e.run();
        EXPECT_GT(at, 0u) << "dst " << dst;
        EXPECT_EQ(moves, 3) << "dst " << dst;
    }
}

TEST(Network, ByteAccountingPerTier)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    net.inject({.src = 0, .dst = 1, .type = MsgType::ReadResp,
                .onArrival = {}}); // intra
    net.inject({.src = 0, .dst = 4, .type = MsgType::ReadResp,
                .onArrival = {}}); // inter
    EXPECT_EQ(net.intraGpuBytes(MsgType::ReadResp), 288u);
    EXPECT_EQ(net.interGpuBytes(MsgType::ReadResp), 144u);
    EXPECT_EQ(net.messages(MsgType::ReadResp), 2u);
    EXPECT_EQ(net.totalInterGpuBytes(), 144u);
    e.run();
    EXPECT_EQ(net.messagesDelivered(), 2u);
}

TEST(Network, SameGpuPredicate)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    EXPECT_TRUE(net.sameGpu(0, 3));
    EXPECT_FALSE(net.sameGpu(3, 4));
    EXPECT_TRUE(net.sameGpu(12, 15));
}

TEST(Network, FifoPerSourceDestination)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    std::vector<int> order;
    // A large data message then small control messages: control must
    // not overtake data on the same path.
    net.inject({.src = 0, .dst = 4, .type = MsgType::ReadResp,
                .onArrival = [&]() { order.push_back(1); }});
    net.inject({.src = 0, .dst = 4, .type = MsgType::Inv,
                .onArrival = [&]() { order.push_back(2); }});
    net.inject({.src = 0, .dst = 4, .type = MsgType::Inv,
                .onArrival = [&]() { order.push_back(3); }});
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Network, InterGpuBandwidthBound)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    // Saturate GPU0's egress with 10k data messages to GPU1. The last
    // arrival is bandwidth-dominated: total bytes over the inter-GPU
    // link rate plus the fixed path latency.
    const int n = 10000;
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        sendProbe(e, net, 0, 4, MsgType::ReadResp, &last);
    e.run();
    const double bytes = n * 144.0;
    const double expect =
        bytes / cfg.interGpuPortBytesPerCycle() +
        static_cast<double>(cfg.intraGpuHopLatency +
                            cfg.interGpuHopLatency);
    EXPECT_NEAR(static_cast<double>(last), expect, expect * 0.02);
}

TEST(Network, IntraGpuFasterThanInterGpu)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    const int n = 2000;
    Tick intra = 0, inter = 0;
    for (int i = 0; i < n; ++i)
        sendProbe(e, net, 8, 9, MsgType::ReadResp, &intra);
    for (int i = 0; i < n; ++i)
        sendProbe(e, net, 0, 4, MsgType::ReadResp, &inter);
    e.run();
    EXPECT_LT(intra, inter);
}

TEST(Network, SaturatedLinkUtilizationCapsAtOne)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    // 2x oversubscription: two GPUs' worth of data converge on GPU1's
    // switch ingress. Utilization must report <= 100% and messages must
    // accumulate queueing delay (they wait for the wire, they don't
    // teleport). n is large so the ~630-cycle pipeline-fill lead-in
    // (counted in elapsed time but not in busy cycles) dilutes
    // utilization by under 2%.
    const int n = 16000;
    Tick last = 0;
    for (int i = 0; i < n; ++i) {
        sendProbe(e, net, 0, 4, MsgType::ReadResp, &last);   // GPU0 -> GPU1
        sendProbe(e, net, 8, 5, MsgType::ReadResp, &last);   // GPU2 -> GPU1
    }
    e.run();
    const Port &in = net.gpuIngressPort(1);
    EXPECT_LE(in.utilization(), 1.0);
    EXPECT_GT(in.utilization(), 0.95);
    EXPECT_GT(in.queueingDelayCycles(), 0u);
    EXPECT_GT(in.peakQueueDepth(), 0u);
    // The shared ingress wire is the bottleneck: the run takes ~2x the
    // single-flow time because both flows squeeze through one link.
    const double bytes = 2.0 * n * 144.0;
    const double floor_cycles = bytes / cfg.interGpuPortBytesPerCycle();
    EXPECT_GE(static_cast<double>(last), floor_cycles);
}

TEST(Network, QueueingDelayGrowsWithOversubscription)
{
    SystemConfig cfg;
    const int n = 2000;

    auto delay_with_flows = [&](int flows) {
        Engine e;
        Network net(e, cfg);
        Tick sink = 0;
        // Each flow comes from a different GPU, all converging on GPU1.
        const GpmId srcs[] = {0, 8, 12};
        for (int i = 0; i < n; ++i)
            for (int f = 0; f < flows; ++f)
                sendProbe(e, net, srcs[f], 4 + f % cfg.gpmsPerGpu,
                          MsgType::ReadResp, &sink);
        e.run();
        return net.gpuIngressPort(1).queueingDelayCycles();
    };

    const auto one = delay_with_flows(1);
    const auto three = delay_with_flows(3);
    EXPECT_GT(three, one * 2);
}

TEST(Network, BackpressureParksAndReleasesWaiters)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    EXPECT_TRUE(net.injectable(0));

    // Flood GPM0's NIC far past the backlog limit.
    const std::uint32_t flood = cfg.nocInjectionBacklogLimit + 64;
    for (std::uint32_t i = 0; i < flood; ++i)
        net.inject({.src = 0, .dst = 4, .type = MsgType::ReadResp,
                    .onArrival = {}});
    EXPECT_FALSE(net.injectable(0));
    EXPECT_GT(net.injectionBacklog(0), 0u);

    bool ran = false;
    net.whenInjectable(0, [&]() { ran = true; });
    EXPECT_FALSE(ran);

    e.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(net.injectionBacklog(0), 0u);
    EXPECT_TRUE(net.injectable(0));

    // With credits available the waiter runs immediately.
    bool now = false;
    net.whenInjectable(0, [&]() { now = true; });
    EXPECT_TRUE(now);
}

TEST(Network, StatsReport)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    net.inject({.src = 0, .dst = 4, .type = MsgType::Inv,
                .onArrival = {}});
    e.run();
    StatRecorder r;
    net.reportStats(r, "noc");
    EXPECT_DOUBLE_EQ(r.get("noc.inv.msgs"), 1);
    EXPECT_DOUBLE_EQ(r.get("noc.inv.inter_bytes"), 16);
    // Per-port occupancy stats exist for the links the message crossed.
    EXPECT_DOUBLE_EQ(r.get("noc.port.gpm0.egress.msgs"), 1);
    EXPECT_DOUBLE_EQ(r.get("noc.port.gpu0.egress.bytes"), 16);
    EXPECT_DOUBLE_EQ(r.get("noc.port.gpu1.ingress.msgs"), 1);
    EXPECT_DOUBLE_EQ(r.get("noc.port.gpm4.ingress.msgs"), 1);
    EXPECT_GT(r.get("noc.inter_gpu.util_avg"), 0.0);
    EXPECT_GE(r.get("noc.inter_gpu.util_peak"),
              r.get("noc.inter_gpu.util_avg"));
}

TEST(NetworkDeath, SelfSendIsABug)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    EXPECT_DEATH(
        net.inject({.src = 3, .dst = 3, .type = MsgType::ReadReq,
                    .onArrival = {}}),
        "assertion");
}

} // namespace
} // namespace hmg
