/**
 * @file
 * Unit tests for src/common: integer math, the deterministic RNG, the
 * statistics recorder, and the Table II configuration derivations.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/intmath.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "test_system.hh"

namespace hmg
{
namespace
{

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(128));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(129));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(128), 7u);
    EXPECT_EQ(floorLog2(2ull * 1024 * 1024), 21u);
    EXPECT_EQ(floorLog2(3), 1u);
}

TEST(IntMath, DivCeilAndRoundUp)
{
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_EQ(roundUp(10, 4), 12u);
    EXPECT_EQ(roundUp(12, 4), 12u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    // Mean of U(0,1) should land near 0.5.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

TEST(Rng, SkewedPrefersSmallIndices)
{
    Rng r(11);
    std::uint64_t low = 0, n = 10000;
    for (std::uint64_t i = 0; i < n; ++i)
        if (r.skewed(1000) < 100)
            ++low;
    // A power-law-ish draw lands in the bottom decile far more often
    // than the uniform 10%.
    EXPECT_GT(low, n / 5);
}

TEST(Stats, RecordSetsOnce)
{
    StatRecorder r;
    r.record("a.x", 1);
    r.record("a.y", 5);
    EXPECT_DOUBLE_EQ(r.get("a.x"), 1);
    EXPECT_DOUBLE_EQ(r.get("a.y"), 5);
    EXPECT_DOUBLE_EQ(r.get("missing"), 0);
    EXPECT_EQ(r.all().size(), 2u);
}

TEST(StatsDeath, SecondRecordOfOneNamePanicsNamingTheKey)
{
    StatRecorder r;
    r.record("protocol.store_inv_lines", 3);
    EXPECT_DEATH(r.record("protocol.store_inv_lines", 3),
                 "stat 'protocol.store_inv_lines' recorded twice");
}

TEST(Stats, AddSumsParts)
{
    // Two sibling components, each reporting into a recorder of its
    // own; add() is the only path that sums.
    StatRecorder a, b;
    a.record("l2.loads", 3);
    a.record("dir.hits", 1);
    b.record("l2.loads", 4);
    b.record("rx_bytes", 256);
    StatRecorder total;
    total.add(a);
    total.add(b);
    EXPECT_DOUBLE_EQ(total.get("l2.loads"), 7);
    EXPECT_DOUBLE_EQ(total.get("dir.hits"), 1);
    EXPECT_DOUBLE_EQ(total.get("rx_bytes"), 256);
    EXPECT_EQ(total.all().size(), 3u);

    StatRecorder r;
    r.record("total", total);
    EXPECT_DOUBLE_EQ(r.get("total.l2.loads"), 7);
    EXPECT_DOUBLE_EQ(r.get("total.rx_bytes"), 256);
    EXPECT_EQ(r.all().size(), 3u);
}

// Filing a part under a prefix is set-once too: an absolute key that
// lands inside an aggregate's namespace panics whichever comes first.
TEST(StatsDeath, PrefixedPartOntoExistingKeyPanics)
{
    StatRecorder part;
    part.record("sideband.bytes", 1);
    {
        StatRecorder r;
        r.record("noc.sideband.bytes", 1);
        EXPECT_DEATH(r.record("noc", part),
                     "stat 'noc.sideband.bytes' recorded twice");
    }
    {
        StatRecorder r;
        r.record("noc", part);
        EXPECT_DEATH(r.record("noc.sideband.bytes", 1),
                     "stat 'noc.sideband.bytes' recorded twice");
    }
}

// A GPM's stats are published only as sums (gpuN.*, total.*), yet a key
// written twice within one GPM's report still panics: each GPM reports
// into a fresh recorder before the parts are added.
TEST(StatsDeath, KeyWrittenTwiceInOneGpmReportPanics)
{
    testing::DirectDrive d(Protocol::Hmg);
    d.load(0, 0x1000);
    StatRecorder part;
    d.sys.gpm(0).reportStats(part);
    EXPECT_GT(part.get("l2.loads"), 0);
    EXPECT_DEATH(d.sys.gpm(0).reportStats(part),
                 "stat 'l2.loads' recorded twice");

    // The system-wide report sums the same keys across GPMs cleanly.
    StatRecorder r;
    d.sys.reportStats(r);
    double per_gpu = 0;
    for (std::uint32_t u = 0; u < d.cfg().numGpus; ++u)
        per_gpu += r.get("gpu" + std::to_string(u) + ".l2.loads");
    EXPECT_DOUBLE_EQ(r.get("total.l2.loads"), per_gpu);
    EXPECT_GT(per_gpu, 0);
}

TEST(Stats, MeanStat)
{
    MeanStat m;
    EXPECT_DOUBLE_EQ(m.mean(), 0);
    m.sample(2);
    m.sample(4);
    EXPECT_DOUBLE_EQ(m.mean(), 3);
    EXPECT_EQ(m.count(), 2u);
}

TEST(Config, TableTwoDefaults)
{
    SystemConfig cfg;
    cfg.validate();
    EXPECT_EQ(cfg.numGpus, 4u);
    EXPECT_EQ(cfg.gpmsPerGpu, 4u);
    EXPECT_EQ(cfg.totalGpms(), 16u);
    EXPECT_EQ(cfg.totalSms(), 512u);
    EXPECT_EQ(cfg.smsPerGpm(), 32u);
    EXPECT_EQ(cfg.l2BytesPerGpm(), 3ull * 1024 * 1024);
    // 12K entries x 4 lines x 128 B = 6 MB covered per GPM (Section VI).
    EXPECT_EQ(cfg.dirCoverageBytesPerGpm(), 6ull * 1024 * 1024);
    // M + N - 2 = 6 sharers tracked per entry (Section VII-C).
    EXPECT_EQ(cfg.dirSharerBits(), 6u);
}

TEST(Config, TopologyHelpers)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.gpuOf(0), 0u);
    EXPECT_EQ(cfg.gpuOf(5), 1u);
    EXPECT_EQ(cfg.gpuOf(15), 3u);
    EXPECT_EQ(cfg.localGpmOf(5), 1u);
    EXPECT_EQ(cfg.gpmId(3, 2), 14u);
    // SMs stripe contiguously over GPMs: SM 0..31 -> GPM0, 32..63 -> GPM1.
    EXPECT_EQ(cfg.gpmOfSm(0), 0u);
    EXPECT_EQ(cfg.gpmOfSm(31), 0u);
    EXPECT_EQ(cfg.gpmOfSm(32), 1u);
    EXPECT_EQ(cfg.gpmOfSm(128), 4u);
    EXPECT_EQ(cfg.gpmOfSm(511), 15u);
}

TEST(Config, BandwidthConversions)
{
    SystemConfig cfg;
    // 200 GB/s at 1.3 GHz ~= 153.8 B/cycle.
    EXPECT_NEAR(cfg.interGpuPortBytesPerCycle(), 153.85, 0.1);
    // 2 TB/s / 4 GPMs / 2 directions = 250 GB/s -> ~192 B/cycle.
    EXPECT_NEAR(cfg.intraGpuPortBytesPerCycle(), 192.3, 0.1);
    // 1 TB/s / 4 GPMs -> ~192 B/cycle.
    EXPECT_NEAR(cfg.dramPortBytesPerCycle(), 192.3, 0.1);
}

TEST(Config, ToStringMentionsKeyFields)
{
    SystemConfig cfg;
    std::string s = cfg.toString();
    EXPECT_NE(s.find("12MB per GPU"), std::string::npos);
    EXPECT_NE(s.find("1.3GHz"), std::string::npos);
    EXPECT_NE(s.find("HMG"), std::string::npos);
}

TEST(Config, ScopeOrdering)
{
    EXPECT_LT(Scope::None, Scope::Cta);
    EXPECT_LT(Scope::Cta, Scope::Gpu);
    EXPECT_LT(Scope::Gpu, Scope::Sys);
    EXPECT_LE(Scope::Gpu, Scope::Gpu);
    EXPECT_GE(Scope::Sys, Scope::Cta);
}

TEST(Config, ProtocolPredicates)
{
    EXPECT_TRUE(isHardwareProtocol(Protocol::Nhcc));
    EXPECT_TRUE(isHardwareProtocol(Protocol::Hmg));
    EXPECT_FALSE(isHardwareProtocol(Protocol::SwHier));
    EXPECT_TRUE(isHierarchicalProtocol(Protocol::Hmg));
    EXPECT_TRUE(isHierarchicalProtocol(Protocol::SwHier));
    EXPECT_FALSE(isHierarchicalProtocol(Protocol::Nhcc));
    EXPECT_FALSE(isHierarchicalProtocol(Protocol::Ideal));
}

} // namespace
} // namespace hmg
