/**
 * @file
 * Topology-generalization tests: the protocols and the home-node
 * mapping must work for any N-node, M-GPM, G-GPU shape (the paper
 * presents the protocol for arbitrary shapes, evaluating 1x4x4). Runs
 * the message-passing litmus and a randomized trace under NHCC and HMG
 * across a sweep of machine shapes — including multi-node shapes whose
 * home chain has a live node tier — plus the declarative Topology
 * object: its strict JSON parser (every malformed input is a one-line
 * fatal), its round-trip, and the differential proof that applying the
 * default spec to a SystemConfig changes nothing.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/topology.hh"
#include "core/sharer_ops.hh"
#include "gpu/simulator.hh"
#include "test_system.hh"
#include "trace/trace.hh"

namespace hmg
{
namespace
{

using Shape =
    std::tuple<int /*nodes*/, int /*gpus*/, int /*gpms*/, int /*protocol*/>;

SystemConfig
shapedConfig(std::uint32_t nodes, std::uint32_t gpus, std::uint32_t gpms,
             Protocol p)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    cfg.numGpus = gpus;
    cfg.gpmsPerGpu = gpms;
    cfg.smsPerGpu = 2 * gpms; // 2 SMs per GPM
    cfg.maxWarpsPerSm = 8;
    cfg.l1Bytes = 16 * 1024;
    cfg.l1Ways = 4;
    cfg.l2BytesPerGpu = gpms * 32 * 1024;
    cfg.dirEntriesPerGpm = 64;
    cfg.dirWays = 4;
    cfg.protocol = p;
    cfg.validate();
    return cfg;
}

class TopologySweep : public ::testing::TestWithParam<Shape>
{
  protected:
    SystemConfig
    cfg() const
    {
        auto [nodes, gpus, gpms, proto] = GetParam();
        return shapedConfig(static_cast<std::uint32_t>(nodes),
                            static_cast<std::uint32_t>(gpus),
                            static_cast<std::uint32_t>(gpms),
                            static_cast<Protocol>(proto));
    }
};

TEST_P(TopologySweep, HomeMappingIsConsistent)
{
    SystemConfig c = cfg();
    System sys(c);
    // The mapping the home-chain walk routes by.
    const SharerTopology topo{c.numGpus, c.gpmsPerGpu, c.numNodes};
    // Place one page per GPM and check every GPU-home shares the system
    // home's local index.
    for (GpmId h = 0; h < c.totalGpms(); ++h) {
        Addr a = static_cast<Addr>(h) * c.osPageBytes;
        sys.pageTable().touch(a, h);
        EXPECT_EQ(sys.pageTable().homeOf(a), h);
        for (GpuId g = 0; g < c.numGpus; ++g) {
            GpmId gh = topo.gpuHome(g, h);
            EXPECT_EQ(c.gpuOf(gh), g);
            EXPECT_EQ(c.localGpmOf(gh), c.localGpmOf(h));
        }
        for (NodeId n = 0; n < c.numNodes; ++n) {
            // The node home is the GPU home of the node's GPU whose
            // local index matches the system home's GPU — so every
            // node home is also a GPU home, and the node home of the
            // system home's own node is the system home itself.
            GpmId nh = topo.nodeHome(n, h);
            EXPECT_EQ(c.nodeOfGpm(nh), n);
            EXPECT_EQ(c.localGpmOf(nh), c.localGpmOf(h));
            EXPECT_EQ(c.localGpuOf(c.gpuOf(nh)),
                      c.localGpuOf(c.gpuOf(h)));
            if (n == c.nodeOfGpm(h)) {
                EXPECT_EQ(nh, h);
            }
        }
    }
}

TEST_P(TopologySweep, MessagePassingAcrossGpus)
{
    SystemConfig c = cfg();
    if (c.numGpus < 2)
        GTEST_SKIP();
    testing::DirectDrive d(c.protocol, c);

    Rng rng(5);
    for (int trial = 0; trial < 6; ++trial) {
        const Addr data = static_cast<Addr>(2 * trial) * c.osPageBytes;
        const Addr flag =
            static_cast<Addr>(2 * trial + 1) * c.osPageBytes;
        d.place(data, static_cast<GpmId>(rng.below(c.totalGpms())));
        d.place(flag, static_cast<GpmId>(rng.below(c.totalGpms())));
        const SmId writer = static_cast<SmId>(rng.below(c.totalSms()));
        const SmId reader = static_cast<SmId>(rng.below(c.totalSms()));

        d.load(reader, data); // stale seed
        Version v1 = d.store(writer, data);
        d.release(writer, Scope::Sys);
        Version v2 = d.store(writer, flag);

        Version seen = 0;
        int spins = 0;
        while (seen < v2) {
            seen = d.load(reader, flag, Scope::Sys);
            ASSERT_LT(++spins, 100);
        }
        d.acquire(reader, Scope::Sys);
        EXPECT_GE(d.load(reader, data), v1)
            << "nodes=" << c.numNodes << " gpus=" << c.numGpus
            << " gpms=" << c.gpmsPerGpu << " trial=" << trial;
    }
}

TEST_P(TopologySweep, RandomTraceCompletes)
{
    SystemConfig c = cfg();
    Rng rng(11);
    trace::Trace t;
    t.name = "topo-random";
    for (int k = 0; k < 2; ++k) {
        trace::Kernel ker;
        ker.ctas.resize(2 * c.totalGpms());
        for (auto &cta : ker.ctas) {
            cta.warps.resize(2);
            for (auto &w : cta.warps)
                for (int i = 0; i < 20; ++i) {
                    Addr a = rng.below(256) * 128;
                    if (rng.chance(0.2))
                        w.st(a, 1);
                    else if (rng.chance(0.1))
                        w.atom(a, Scope::Sys, 2);
                    else
                        w.ld(a, 1);
                }
        }
        t.kernels.push_back(std::move(ker));
    }
    Simulator sim(c);
    auto res = sim.run(t);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.ops"),
                     static_cast<double>(t.memOps()));
    EXPECT_EQ(sim.system().tracker().totalPendingSys(), 0u);
}

std::vector<Shape>
allShapes()
{
    std::vector<Shape> shapes;
    const std::pair<int, int> dims[] = {{2, 2}, {2, 4}, {4, 2},
                                        {4, 4}, {8, 2}, {1, 4}};
    for (auto [gpus, gpms] : dims)
        for (Protocol p : {Protocol::Nhcc, Protocol::Hmg})
            shapes.emplace_back(1, gpus, gpms, static_cast<int>(p));
    // Multi-node shapes: the home chain grows a live node tier. The
    // 2x2x2 instance is the one hmgcheck --nodes 2 model-checks; the
    // larger ones exercise asymmetric tiers. HMG only — NHCC's flat
    // mask has no node tier (its scaling wall is the point of Fig. 2).
    for (auto [nodes, gpus, gpms] :
         {std::tuple<int, int, int>{2, 4, 2}, {2, 4, 4}, {4, 8, 2}})
        shapes.emplace_back(nodes, gpus, gpms,
                            static_cast<int>(Protocol::Hmg));
    return shapes;
}

std::string
shapeName(const ::testing::TestParamInfo<Shape> &info)
{
    std::string n = toString(
        static_cast<Protocol>(std::get<3>(info.param)));
    return n + "_" + std::to_string(std::get<0>(info.param)) + "x" +
           std::to_string(std::get<1>(info.param)) + "x" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologySweep,
                         ::testing::ValuesIn(allShapes()), shapeName);

// ------------------------------------------- declarative Topology object

TEST(TopologySpec, DefaultReproducesTableTwo)
{
    // The default-constructed Topology applied onto a default
    // SystemConfig must change nothing: same shape, same link fabric,
    // same memories. (The end-to-end statistics differential lives in
    // cli_test.sh / ci.sh, which diff full --stats dumps.)
    SystemConfig untouched;
    SystemConfig applied;
    Topology{}.applyTo(applied);
    EXPECT_EQ(applied.numNodes, untouched.numNodes);
    EXPECT_EQ(applied.numGpus, untouched.numGpus);
    EXPECT_EQ(applied.gpmsPerGpu, untouched.gpmsPerGpu);
    EXPECT_EQ(applied.smsPerGpu, untouched.smsPerGpu);
    EXPECT_EQ(applied.l2BytesPerGpu, untouched.l2BytesPerGpu);
    EXPECT_EQ(applied.dirEntriesPerGpm, untouched.dirEntriesPerGpm);
    EXPECT_EQ(applied.intraGpuHopLatency, untouched.intraGpuHopLatency);
    EXPECT_EQ(applied.interGpuHopLatency, untouched.interGpuHopLatency);
    EXPECT_EQ(applied.interNodeHopLatency,
              untouched.interNodeHopLatency);
    EXPECT_DOUBLE_EQ(applied.interGpmGBpsPerGpu,
                     untouched.interGpmGBpsPerGpu);
    EXPECT_DOUBLE_EQ(applied.interGpuGBpsPerLink,
                     untouched.interGpuGBpsPerLink);
    EXPECT_DOUBLE_EQ(applied.interNodeGBpsPerLink,
                     untouched.interNodeGBpsPerLink);
    EXPECT_DOUBLE_EQ(applied.dramGBpsPerGpu, untouched.dramGBpsPerGpu);
}

TEST(TopologySpec, JsonRoundTripIsIdentity)
{
    Topology t;
    t.nodes = 2;
    t.gpusPerNode = 2;
    t.gpmsPerGpu = 2;
    t.smsPerGpu = 8;
    t.interNodeGBps = 50.0;
    t.interNodeHopLatency = 2400;
    t.l2MBPerGpu = 2;
    const Topology r = Topology::parseJson(t.toJson(), "<inline>");
    EXPECT_EQ(r.nodes, t.nodes);
    EXPECT_EQ(r.gpusPerNode, t.gpusPerNode);
    EXPECT_EQ(r.gpmsPerGpu, t.gpmsPerGpu);
    EXPECT_EQ(r.smsPerGpu, t.smsPerGpu);
    EXPECT_DOUBLE_EQ(r.interNodeGBps, t.interNodeGBps);
    EXPECT_EQ(r.interNodeHopLatency, t.interNodeHopLatency);
    EXPECT_EQ(r.l2MBPerGpu, t.l2MBPerGpu);
    EXPECT_EQ(r.toJson(), t.toJson());
}

TEST(TopologySpec, AsymmetricLinkRatesApply)
{
    // Per-tier rates are independent knobs: a topology may declare a
    // node uplink both slower and slacker than the NVSwitch tier.
    const char *spec = R"({
        "nodes": 2, "gpusPerNode": 2, "gpmsPerGpu": 2, "smsPerGpu": 8,
        "link": { "interGpuGBps": 300, "interNodeGBps": 25,
                  "interNodeHopLatency": 4800 },
        "memory": { "l2MBPerGpu": 2 }
    })";
    SystemConfig cfg;
    Topology::parseJson(spec, "<inline>").applyTo(cfg);
    EXPECT_EQ(cfg.numNodes, 2u);
    EXPECT_EQ(cfg.numGpus, 4u);
    EXPECT_DOUBLE_EQ(cfg.interGpuGBpsPerLink, 300.0);
    EXPECT_DOUBLE_EQ(cfg.interNodeGBpsPerLink, 25.0);
    EXPECT_EQ(cfg.interNodeHopLatency, 4800u);
    // Untouched tiers keep their Table II defaults.
    EXPECT_DOUBLE_EQ(cfg.interGpmGBpsPerGpu, 2000.0);
    EXPECT_EQ(cfg.interGpuHopLatency, 600u);
}

TEST(TopologySpecDeath, StrictParserRejectsMalformedSpecs)
{
    auto dies = [](const char *spec) {
        EXPECT_EXIT(Topology::parseJson(spec, "<inline>"),
                    ::testing::ExitedWithCode(1), "");
    };
    dies("");                                  // no object at all
    dies("{");                                 // unterminated object
    dies("{ \"nodes\": 2 ");                   // missing brace
    dies("{ nodes: 2 }");                      // unquoted key
    dies("{ \"nodes\": }");                    // missing value
    dies("{ \"nodes\": 2 } trailing");         // trailing characters
    dies("{ \"frobnicate\": 3 }");             // unknown key
    dies("{ \"link\": { \"warpSpeed\": 9 } }");   // unknown link key
    dies("{ \"nodes\": 0 }");                  // zero-sized tier
    dies("{ \"gpusPerNode\": 0 }");            // zero-sized tier
    dies("{ \"gpmsPerGpu\": 2.5 }");           // fractional tier
    dies("{ \"nodes\": 33 }");                 // beyond the node mask
    dies("{ \"link\": { \"interNodeGBps\": 0 } }");   // zero rate
    dies("{ \"link\": { \"interNodeGBps\": -5 } }");  // negative rate
    dies("{ \"link\": { \"interGpuGBps\": \"fast\" } }"); // wrong type
}

TEST(TopologySpecDeath, NumbersFollowJsonGrammar)
{
    // strtod alone took hex, a leading '+', leading zeros and a bare
    // exponent or point; JSON has none of them.
    auto dies = [](const char *value) {
        const std::string spec =
            std::string("{ \"link\": {\n \"interGpuGBps\": ") + value +
            " } }";
        EXPECT_EXIT(Topology::parseJson(spec, "t.json"),
                    ::testing::ExitedWithCode(1),
                    "t.json:2: key \"interGpuGBps\" wants a finite JSON "
                    "number");
    };
    dies("0x10");
    dies("+4");
    dies("012");
    dies("4.");
    dies(".5");
    dies("1e");
    dies("-");
    dies("Infinity");
    SystemConfig cfg;
    Topology::parseJson("{ \"link\": { \"interGpuGBps\": 2.5e2,"
                        " \"interNodeGBps\": 0.5E+2 } }",
                        "t.json")
        .applyTo(cfg);
    EXPECT_DOUBLE_EQ(cfg.interGpuGBpsPerLink, 250.0);
    EXPECT_DOUBLE_EQ(cfg.interNodeGBpsPerLink, 50.0);
}

TEST(TopologySpecDeath, RatesOutsideTheirBoundsNameTheirField)
{
    // A 1e308 rate parsed, validated and reached the fabric's credit-pool
    // arithmetic, whose double-to-integer cast overflowed; a 1e-300 one
    // quantized to zero bandwidth and panicked building its serializer.
    SystemConfig cfg;
    EXPECT_EXIT(Topology::parseJson("{ \"link\": { \"interGpuGBps\": "
                                    "1e308 } }",
                                    "t.json")
                    .applyTo(cfg),
                ::testing::ExitedWithCode(1),
                "interGpuGBpsPerLink \\(1e\\+308 GB/s\\) must be in");
    EXPECT_EXIT(Topology::parseJson("{ \"memory\": { \"dramGBpsPerGpu\": "
                                    "1e-300 } }",
                                    "t.json")
                    .applyTo(cfg),
                ::testing::ExitedWithCode(1), "dramGBpsPerGpu");
}

TEST(TopologySpecDeath, NulBytesAndRepeatedKeysAreLocatedErrors)
{
    // A NUL byte used to end the scan, accepting whatever preceded it;
    // a repeated key used to keep its last value silently.
    static const char kNul[] =
        "{\"nodes\":1,\"gpusPerNode\":2,\"gpmsPerGpu\":2,"
        "\"smsPerGpu\":8}\0garbage";
    const std::string nul(kNul, sizeof(kNul) - 1);
    EXPECT_EXIT(Topology::parseJson(nul, "t.json"),
                ::testing::ExitedWithCode(1), "t.json:1: NUL byte");
    EXPECT_EXIT(Topology::parseJson("{ \"gpusPerNode\": 2,\n"
                                    "  \"gpmsPerGpu\": 2,\n"
                                    "  \"gpusPerNode\": 4 }",
                                    "t.json"),
                ::testing::ExitedWithCode(1),
                "t.json:3: duplicate key \"gpusPerNode\"");
    EXPECT_EXIT(Topology::parseJson("{ \"link\": { \"interGpuGBps\": 1,"
                                    " \"interGpuGBps\": 2 } }",
                                    "t.json"),
                ::testing::ExitedWithCode(1), "t.json:1: duplicate key");
}

TEST(TopologySpecDeath, ApplyValidatesTheResultingShape)
{
    // The parser accepts shape keys independently; applyTo runs the
    // full SystemConfig validation, so impossible combinations die
    // with the config layer's message rather than simulating.
    auto dies = [](Topology t) {
        SystemConfig cfg;
        EXPECT_EXIT(t.applyTo(cfg), ::testing::ExitedWithCode(1), "");
    };
    Topology wideNode;
    wideNode.gpusPerNode = 64; // > the 32-bit GPU sharer mask
    dies(wideNode);
    Topology oddSms;
    oddSms.gpmsPerGpu = 3;
    oddSms.smsPerGpu = 128; // not divisible by 3
    dies(oddSms);
    Topology flatLatency;
    flatLatency.nodes = 2;
    flatLatency.gpusPerNode = 2;
    flatLatency.interNodeHopLatency = 1; // zero LP-cut lookahead
    dies(flatLatency);
}

} // namespace
} // namespace hmg
