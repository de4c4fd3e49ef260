/**
 * @file
 * Conservative-PDES partitioning tests.
 *
 * The deterministic-merge mode (`--lp-jobs N --deterministic`) promises
 * bit-identical results to the serial engine: the differential tests
 * here run full simulations — the four message-passing litmus shapes as
 * hand-built traces on the default 4-GPU x 4-GPM machine, plus a Table
 * III workload — twice and compare the cycle count and the *entire*
 * statistics map key for key, bit for bit.
 *
 * The relaxed TimeWindow mode only promises delay-bounded behaviour:
 * those runs execute under the runtime coherence checker and must
 * complete without a violation. They are also the threaded tests the
 * tsan CI preset exercises, together with a transport-level case whose
 * messages cross LPs, and so the per-LP message slabs, in both
 * directions. An address check pins the layout rule of those runs: the
 * state each LP writes shares no host line with another LP's.
 *
 * Partition-time validation (the zero-lookahead rejection rules) is
 * unit-tested against LpPlan directly.
 */

#include <cstdint>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/fabric.hh"
#include "gpu/simulator.hh"
#include "gpu/system.hh"
#include "noc/network.hh"
#include "sim/lp.hh"
#include "trace/workloads.hh"

namespace hmg
{
namespace
{

constexpr Addr kData = 0x000000; // page 0
constexpr Addr kFlag = 0x200000; // page 1
/** Per-GPM private pages, used to pin first-touch placement. */
constexpr Addr kPriv = 0x800000;

SystemConfig
pdesConfig()
{
    SystemConfig cfg; // Table II defaults: 4 GPUs x 4 GPMs
    cfg.checkCoherence = true;
    return cfg;
}

/**
 * A message-passing trace on the full machine. Kernel 1 places the data
 * and flag pages by first touch; kernel 2 plants a stale copy of DATA
 * at the reader; kernel 3 runs the MP shape proper: the writer stores
 * DATA, releases at `scope`, stores FLAG, while the reader acquire-loads
 * FLAG (well after the release, by compute delay) and reloads DATA.
 * Every other GPM touches only its private page, pinning one CTA per
 * GPM so writer/reader land exactly where the shape needs them.
 */
trace::Trace
mpTrace(const SystemConfig &cfg, GpmId writer, GpmId reader, Scope scope,
        GpmId data_home, GpmId flag_home)
{
    const std::uint32_t n = cfg.totalGpms();
    auto priv = [](GpmId g) { return kPriv + Addr{g} * 0x200000; };

    trace::Trace t;
    t.name = "mp_pdes";
    for (int k = 0; k < 3; ++k) {
        trace::Kernel kern;
        kern.name = "k" + std::to_string(k);
        for (GpmId g = 0; g < n; ++g) {
            trace::Warp w;
            if (k == 0) {
                w.ld(priv(g));
                if (g == data_home)
                    w.ld(kData, /*delay=*/4);
                if (g == flag_home)
                    w.ld(kFlag, /*delay=*/8);
            } else if (k == 1) {
                if (g == reader)
                    w.ld(kData);
                else
                    w.ld(priv(g));
            } else {
                if (g == writer) {
                    w.st(kData);
                    w.relFence(scope, /*delay=*/2);
                    w.st(kFlag, /*delay=*/2);
                } else if (g == reader) {
                    w.ld(kFlag, /*delay=*/4000, scope,
                         /*acquire=*/true);
                    w.ld(kData, /*delay=*/2);
                } else {
                    w.ld(priv(g));
                }
            }
            trace::Cta cta;
            cta.warps.push_back(std::move(w));
            kern.ctas.push_back(std::move(cta));
        }
        t.kernels.push_back(std::move(kern));
    }
    return t;
}

SimResult
runMode(const SystemConfig &base, const trace::Trace &t,
        std::uint32_t lp_jobs, bool deterministic)
{
    SystemConfig cfg = base;
    cfg.lpJobs = lp_jobs;
    cfg.lpDeterministic = deterministic;
    Simulator sim(cfg);
    return sim.run(t);
}

/** Serial vs `--lp-jobs 4 --deterministic`: cycles and the complete
 *  statistics map must match bit for bit. */
void
expectBitIdentical(const SystemConfig &cfg, const trace::Trace &t)
{
    const SimResult serial = runMode(cfg, t, 1, false);
    const SimResult det = runMode(cfg, t, 4, true);

    EXPECT_EQ(serial.cycles, det.cycles);

    const auto &a = serial.stats.all();
    const auto &b = det.stats.all();
    ASSERT_EQ(a.size(), b.size());
    auto ib = b.begin();
    for (const auto &[k, v] : a) {
        EXPECT_EQ(k, ib->first);
        EXPECT_EQ(v, ib->second) << "stat '" << k << "' diverged";
        ++ib;
    }
}

// ------------------------------------------------- differential: MP

class PdesDifferentialTest : public ::testing::TestWithParam<Protocol>
{
};

TEST_P(PdesDifferentialTest, MessagePassingSysScopeAcrossGpus)
{
    SystemConfig cfg = pdesConfig();
    cfg.protocol = GetParam();
    // Writer GPU0, reader GPU1; data homed on GPU3, flag on GPU1.
    expectBitIdentical(cfg, mpTrace(cfg, /*writer=*/0, /*reader=*/4,
                                    Scope::Sys, /*data_home=*/12,
                                    /*flag_home=*/5));
}

TEST_P(PdesDifferentialTest, MessagePassingSysScopeDataHomedAtWriter)
{
    SystemConfig cfg = pdesConfig();
    cfg.protocol = GetParam();
    expectBitIdentical(cfg, mpTrace(cfg, 0, 8, Scope::Sys,
                                    /*data_home=*/0, /*flag_home=*/6));
}

TEST_P(PdesDifferentialTest, MessagePassingGpuScopeWithinGpu)
{
    SystemConfig cfg = pdesConfig();
    cfg.protocol = GetParam();
    // Writer GPM0, reader GPM2 (both GPU0); data homed on a remote GPU
    // to stress the GPU-home path across the partition cut.
    expectBitIdentical(cfg, mpTrace(cfg, 0, 2, Scope::Gpu,
                                    /*data_home=*/13, /*flag_home=*/2));
}

TEST_P(PdesDifferentialTest, MessagePassingGpuScopeLocalData)
{
    SystemConfig cfg = pdesConfig();
    cfg.protocol = GetParam();
    expectBitIdentical(cfg, mpTrace(cfg, 0, 2, Scope::Gpu,
                                    /*data_home=*/1, /*flag_home=*/0));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, PdesDifferentialTest,
    ::testing::Values(Protocol::SwNonHier, Protocol::Nhcc, Protocol::Hmg),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        std::string n = toString(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ------------------------------------------- differential: workload

TEST(PdesWorkloadDifferential, BfsUnderChecker)
{
    SystemConfig cfg = pdesConfig();
    cfg.protocol = Protocol::Hmg;
    const auto t = trace::workloads::make("bfs", 0.05);
    expectBitIdentical(cfg, t);
}

// ---------------------------------------------- relaxed TimeWindow

TEST(PdesTimeWindow, MpRunsCleanUnderChecker)
{
    SystemConfig cfg = pdesConfig();
    cfg.protocol = Protocol::Hmg;
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);
    const SimResult serial = runMode(cfg, t, 1, false);
    const SimResult tw = runMode(cfg, t, 4, false);
    // Relaxations are delay-only: the run completes, the checker stays
    // quiet, and the relaxed clock can only trail the serial one.
    EXPECT_GE(tw.cycles, serial.cycles);
    EXPECT_GT(tw.stats.get("pdes.windows"), 0.0);
    EXPECT_EQ(tw.stats.get("pdes.lps"), 4.0);
    EXPECT_EQ(tw.stats.get("pdes.lookahead"), 300.0);
}

TEST(PdesTimeWindow, WorkloadRunsCleanUnderChecker)
{
    SystemConfig cfg = pdesConfig();
    cfg.protocol = Protocol::Nhcc;
    const auto t = trace::workloads::make("bfs", 0.05);
    const SimResult tw = runMode(cfg, t, 4, false);
    EXPECT_GT(tw.cycles, 0u);
    EXPECT_GT(tw.stats.get("pdes.boundary_msgs"), 0.0);
}

/**
 * Ping-pong traffic on a time-window Network: every arrival records
 * where it ran and sends the message back until its hops run out. Each
 * receiver's log is written only by its own LP's thread.
 */
struct CrossLpTraffic
{
    struct Arrival
    {
        GpmId src;
        std::uint32_t seq;
        std::uint32_t hops;
    };

    CrossLpTraffic(LpDomain &l, Network &n, std::uint32_t gpms)
        : lps(l), net(n), seen(gpms), wrong_lp(gpms, 0)
    {
    }

    void
    send(GpmId src, GpmId dst, std::uint32_t seq, std::uint32_t hops)
    {
        net.inject({.src = src,
                    .dst = dst,
                    .type = hops % 2 ? MsgType::ReadResp : MsgType::ReadReq,
                    .addr = seq,
                    .onArrival = [this, src, dst, seq, hops]() {
                        if (LpDomain::currentLp() != lps.lpOfGpm(dst))
                            wrong_lp[dst] = 1;
                        seen[dst].push_back({src, seq, hops});
                        if (hops > 1)
                            send(dst, src, seq, hops - 1);
                    }});
    }

    LpDomain &lps;
    Network &net;
    std::vector<std::vector<Arrival>> seen;
    std::vector<std::uint8_t> wrong_lp;
};

TEST(PdesTimeWindow, MessagesCrossPerLpSlabs)
{
    SystemConfig cfg; // 4 GPUs x 4 GPMs, one LP per GPU
    cfg.lpJobs = 4;
    LpDomain lps(cfg);
    ASSERT_TRUE(lps.concurrent());
    Network net(lps, cfg);
    const std::uint32_t n = cfg.totalGpms();
    constexpr std::uint32_t kSeqs = 6;
    constexpr std::uint32_t kHops = 3;
    CrossLpTraffic traffic(lps, net, n);
    // Every GPM sends to every other, from its own LP's thread.
    for (GpmId src = 0; src < n; ++src)
        lps.engineOfGpm(src).schedule(0, [&traffic, src, n]() {
            for (std::uint32_t seq = 0; seq < kSeqs; ++seq)
                for (GpmId dst = 0; dst < n; ++dst)
                    if (dst != src)
                        traffic.send(src, dst, seq, kHops);
        });
    lps.run();

    EXPECT_EQ(net.messagesDelivered(), std::uint64_t{n} * (n - 1) * kSeqs * kHops);
    EXPECT_GT(lps.boundaryMsgs(), 0u);
    for (GpmId dst = 0; dst < n; ++dst) {
        EXPECT_EQ(traffic.wrong_lp[dst], 0) << "gpm " << dst;
        EXPECT_EQ(traffic.seen[dst].size(), std::size_t{n - 1} * kSeqs * kHops)
            << "gpm " << dst;
        // First-leg messages from one source arrive in sequence order.
        std::vector<std::int64_t> last(n, -1);
        for (const auto &a : traffic.seen[dst]) {
            if (a.hops != kHops)
                continue;
            EXPECT_GT(static_cast<std::int64_t>(a.seq), last[a.src])
                << "gpm " << a.src << " -> gpm " << dst;
            last[a.src] = a.seq;
        }
    }
}

/** The LP that writes each host line, as objects are added. */
class LineOwners
{
  public:
    /** Record that LP `lp` writes every host line `obj` covers. */
    template <typename T>
    void
    add(const T &obj, std::uint32_t lp, const std::string &what)
    {
        const auto begin = reinterpret_cast<std::uintptr_t>(&obj);
        const std::uintptr_t end = begin + sizeof(T);
        for (std::uintptr_t line = begin / kHostLineBytes;
             line <= (end - 1) / kHostLineBytes; ++line) {
            const auto [it, fresh] = owner_.try_emplace(line, lp, what);
            if (!fresh && it->second.first != lp)
                ADD_FAILURE() << what << " (lp " << lp
                              << ") shares a host line with "
                              << it->second.second << " (lp "
                              << it->second.first << ")";
        }
        ++objects_;
    }

    std::size_t objects() const { return objects_; }

  private:
    std::map<std::uintptr_t, std::pair<std::uint32_t, std::string>> owner_;
    std::size_t objects_ = 0;
};

TEST(PdesTimeWindow, LpsShareNoHostLine)
{
    SystemConfig cfg; // 4 GPUs x 4 GPMs, one LP per GPU
    cfg.lpJobs = 4;
    System sys(cfg);
    LpDomain &lps = sys.lps();
    ASSERT_TRUE(lps.concurrent());
    ASSERT_EQ(lps.numLps(), 4u);
    Network &net = sys.network();

    LineOwners owners;
    for (std::uint32_t lp = 0; lp < lps.numLps(); ++lp) {
        owners.add(lps.engine(lp), lp, "engine " + std::to_string(lp));
        owners.add(net.slab(lp), lp, "slab " + std::to_string(lp));
    }
    const Fabric fabric(cfg, /*windowed=*/true);
    for (std::uint32_t l = 0; l < fabric.links().size(); ++l) {
        const FabricLink &k = fabric.links()[l];
        owners.add(net.port(l), lps.lpOfGpm(k.gpm), "port " + k.name);
    }
    for (GpmId g = 0; g < cfg.totalGpms(); ++g) {
        const std::uint32_t lp = lps.lpOfGpm(g);
        const std::string gpm = "gpm" + std::to_string(g);
        owners.add(sys.gpm(g), lp, gpm + " node");
        owners.add(*sys.gpm(g).dir(), lp, gpm + " directory");
        owners.add(net.nic(g), lp, gpm + " nic");
    }
    for (SmId s = 0; s < sys.numSms(); ++s)
        owners.add(sys.sm(s), lps.lpOfGpm(sys.sm(s).gpm()),
                   "sm" + std::to_string(s));
    EXPECT_EQ(owners.objects(), 4 * 2 + fabric.links().size() +
                                    3 * cfg.totalGpms() + sys.numSms());
}

// ------------------------------------------------ partition rules

TEST(LpPlanTest, RejectsIntraGpuCut)
{
    SystemConfig cfg; // 4 GPUs x 4 GPMs
    // Split GPU0's GPMs across two LPs: a zero-lookahead edge.
    std::vector<std::uint32_t> map(cfg.totalGpms(), 0);
    map[1] = 1;
    for (GpmId g = 4; g < cfg.totalGpms(); ++g)
        map[g] = 1;
    Tick la = 0;
    std::string why;
    EXPECT_FALSE(LpPlan::validateMap(cfg, map, 2, la, why));
    EXPECT_NE(why.find("zero-lookahead"), std::string::npos) << why;
}

TEST(LpPlanTest, RejectsZeroLatencyLink)
{
    SystemConfig cfg;
    cfg.interGpuHopLatency = 1; // per-direction propagation: 1/2 == 0
    std::vector<std::uint32_t> map(cfg.totalGpms());
    for (GpmId g = 0; g < cfg.totalGpms(); ++g)
        map[g] = cfg.gpuOf(g);
    Tick la = 0;
    std::string why;
    EXPECT_FALSE(LpPlan::validateMap(cfg, map, cfg.numGpus, la, why));
    EXPECT_NE(why.find("zero lookahead"), std::string::npos) << why;
}

TEST(LpPlanTest, AcceptsGpuGranularityMap)
{
    SystemConfig cfg;
    std::vector<std::uint32_t> map(cfg.totalGpms());
    for (GpmId g = 0; g < cfg.totalGpms(); ++g)
        map[g] = cfg.gpuOf(g);
    Tick la = 0;
    std::string why;
    EXPECT_TRUE(LpPlan::validateMap(cfg, map, cfg.numGpus, la, why))
        << why;
    EXPECT_EQ(la, cfg.interGpuHopLatency / 2);
}

TEST(LpPlanTest, BuildClampsToGpuCount)
{
    SystemConfig cfg;
    cfg.lpJobs = 64; // more LPs than GPUs
    const LpPlan p = LpPlan::build(cfg);
    EXPECT_EQ(p.numLps, cfg.numGpus);
    EXPECT_EQ(p.mode, LpMode::TimeWindow);
    for (GpmId g = 0; g < cfg.totalGpms(); ++g)
        EXPECT_EQ(p.lpOfGpm[g], cfg.gpuOf(g));
}

TEST(LpPlanTest, BuildCutsAtTheCutTierWithItsLookahead)
{
    // Single node: contiguous GPU blocks, lookahead half the inter-GPU
    // hop (floor, so an odd 601 gives 300).
    SystemConfig one;
    one.lpJobs = 2;
    const std::vector<std::uint32_t> gpu_blocks = {0, 0, 0, 0, 0, 0, 0, 0,
                                                   1, 1, 1, 1, 1, 1, 1, 1};
    for (const Tick hop : {Tick{600}, Tick{601}}) {
        one.interGpuHopLatency = hop;
        const LpPlan p = LpPlan::build(one);
        EXPECT_EQ(p.numLps, 2u);
        EXPECT_EQ(p.mode, LpMode::TimeWindow);
        EXPECT_EQ(p.lpOfGpm, gpu_blocks);
        EXPECT_EQ(p.lookahead, 300u) << hop;
    }

    // 2 nodes x 2 GPUs x 2 GPMs: whole nodes, clamped to the node
    // count, lookahead half the inter-node hop.
    SystemConfig two;
    two.numNodes = 2;
    two.numGpus = 4;
    two.gpmsPerGpu = 2;
    two.lpJobs = 4;
    const std::vector<std::uint32_t> node_blocks = {0, 0, 0, 0, 1, 1, 1, 1};
    for (const Tick hop : {Tick{1200}, Tick{1201}}) {
        two.interNodeHopLatency = hop;
        for (const bool det : {false, true}) {
            two.lpDeterministic = det;
            const LpPlan p = LpPlan::build(two);
            EXPECT_EQ(p.numLps, 2u);
            EXPECT_EQ(p.mode, det ? LpMode::DeterministicMerge
                                  : LpMode::TimeWindow);
            EXPECT_EQ(p.lpOfGpm, node_blocks);
            EXPECT_EQ(p.lookahead, 600u) << hop;
        }
        Tick la = 0;
        std::string why;
        EXPECT_TRUE(LpPlan::validateMap(two, node_blocks, 2, la, why)) << why;
        EXPECT_EQ(la, 600u);
    }
}

TEST(LpPlanTest, RejectionsNameTheOffendingEdge)
{
    auto reason = [](const SystemConfig &cfg,
                     const std::vector<std::uint32_t> &map) {
        Tick la = 0;
        std::string why;
        EXPECT_FALSE(LpPlan::validateMap(cfg, map, 2, la, why));
        return why;
    };
    SystemConfig flat; // 4 GPUs x 4 GPMs
    std::vector<std::uint32_t> split(flat.totalGpms(), 1);
    split[0] = 0;
    EXPECT_EQ(reason(flat, split),
              "zero-lookahead intra-GPU edge: GPMs 0 and 1 share GPU 0 "
              "but are mapped to LPs 0 and 1");
    EXPECT_EQ(reason(flat, std::vector<std::uint32_t>(16, 0)),
              "partition cuts no edges (every GPM in one LP)");
    flat.interGpuHopLatency = 1;
    std::vector<std::uint32_t> halves(16, 0);
    std::fill(halves.begin() + 8, halves.end(), 1);
    EXPECT_EQ(reason(flat, halves),
              "inter-GPU hop latency 1 yields zero lookahead");

    SystemConfig two;
    two.numNodes = 2;
    two.numGpus = 4;
    two.gpmsPerGpu = 2;
    EXPECT_EQ(reason(two, {0, 0, 1, 1, 1, 1, 1, 1}),
              "intra-node cut: GPMs 0 and 2 share node 0 but are mapped "
              "to LPs 0 and 1; multi-node machines carry cross-LP traffic "
              "only over the node uplinks");
    two.interNodeHopLatency = 1;
    EXPECT_EQ(reason(two, {0, 0, 0, 0, 1, 1, 1, 1}),
              "inter-node hop latency 1 yields zero lookahead");
}

TEST(LpPlanTest, SingleJobStaysSerial)
{
    SystemConfig cfg;
    cfg.lpJobs = 1;
    EXPECT_EQ(LpPlan::build(cfg).mode, LpMode::Serial);
}

} // namespace
} // namespace hmg
