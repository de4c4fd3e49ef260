/**
 * @file
 * Parameterized geometry sweeps: cache and directory structural
 * invariants across associativities and capacities (property-style
 * TEST_P), plus SystemConfig validation coverage.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "core/directory.hh"

namespace hmg
{
namespace
{

// ---------------------------------------------------------------- caches

using CacheGeom = std::tuple<int, int, int>;

class CacheGeometry : public ::testing::TestWithParam<CacheGeom>
{
};

TEST_P(CacheGeometry, FillNeverExceedsCapacityAndLruIsSane)
{
    auto [capacity_i, ways_i, line_i] = GetParam();
    const auto capacity = static_cast<std::uint64_t>(capacity_i);
    const auto ways = static_cast<std::uint32_t>(ways_i);
    const auto line = static_cast<std::uint32_t>(line_i);
    Cache c(capacity, ways, line, /*write_allocate=*/true);
    const std::uint64_t lines = capacity / line;

    // Overfill by 4x; the cache must never hold more than its capacity
    // and must still hit on just-inserted lines.
    Rng rng(13);
    for (std::uint64_t i = 0; i < 4 * lines; ++i) {
        Addr a = i * line;
        c.fill(a, i + 1);
        ASSERT_TRUE(c.load(a).hit) << "just-filled line must hit";
    }
    EXPECT_LE(c.validLines(), lines);
    EXPECT_EQ(c.evictions(), 4 * lines - c.validLines());
}

TEST_P(CacheGeometry, RandomOpsKeepVersionMonotonicPerLine)
{
    auto [capacity_i, ways_i, line_i] = GetParam();
    const auto line = static_cast<std::uint32_t>(line_i);
    Cache c(static_cast<std::uint64_t>(capacity_i),
            static_cast<std::uint32_t>(ways_i), line, true);
    Rng rng(7);
    std::map<Addr, Version> newest;
    Version v = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr a = rng.below(256) * line;
        switch (rng.below(3)) {
          case 0:
            c.store(a, ++v);
            newest[a] = v;
            break;
          case 1:
            c.fill(a, newest.count(a) ? newest[a] : 0);
            break;
          default: {
            auto r = c.load(a);
            if (r.hit && newest.count(a)) {
                EXPECT_LE(r.version, newest[a]);
            }
            break;
          }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(
        std::make_tuple(16 * 1024, 1, 128),        // direct-mapped
        std::make_tuple(16 * 1024, 4, 128),
        std::make_tuple(128 * 1024, 8, 128),       // L1 shape
        std::make_tuple(3 * 1024 * 1024, 16, 128), // L2 slice
        std::make_tuple(16 * 1024, 128, 128),      // fully associative
        std::make_tuple(32 * 1024, 4, 64),         // smaller lines
        std::make_tuple(48 * 1024, 4, 128)),       // non-pow2 sets
    [](const ::testing::TestParamInfo<CacheGeom> &info) {
        return "cap" + std::to_string(std::get<0>(info.param) / 1024) +
               "k_w" + std::to_string(std::get<1>(info.param)) + "_l" +
               std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------- directory

using DirGeom = std::tuple<int, int, int>;

class DirectoryGeometry : public ::testing::TestWithParam<DirGeom>
{
};

TEST_P(DirectoryGeometry, AllocateFindRemoveRoundTrip)
{
    auto [entries_i, ways_i, sector_i] = GetParam();
    const auto entries = static_cast<std::uint32_t>(entries_i);
    const auto sector = static_cast<std::uint32_t>(sector_i);
    Directory d(entries, static_cast<std::uint32_t>(ways_i), sector);
    // Insert exactly `entries` distinct sectors striped across sets.
    for (std::uint64_t i = 0; i < entries; ++i)
        d.allocate(i * sector)->addGpm(static_cast<std::uint32_t>(i % 3));
    EXPECT_EQ(d.validCount(), entries);
    EXPECT_EQ(d.evictions(), 0u);
    // Everything findable, any address within the sector resolves.
    for (std::uint64_t i = 0; i < entries; ++i) {
        ASSERT_NE(d.find(i * sector + sector / 2), nullptr);
        EXPECT_TRUE(d.remove(i * sector));
    }
    EXPECT_EQ(d.validCount(), 0u);
}

TEST_P(DirectoryGeometry, EvictionsAreLruWithinSet)
{
    auto [entries_i, ways_i, sector_i] = GetParam();
    const auto ways = static_cast<std::uint32_t>(ways_i);
    const auto sector = static_cast<std::uint32_t>(sector_i);
    Directory d(static_cast<std::uint32_t>(entries_i), ways, sector);
    const std::uint64_t sets = d.numSets();
    // Fill one set, touch all but the first, then overflow: the
    // untouched entry must be the victim.
    for (std::uint32_t w = 0; w < ways; ++w)
        d.allocate(w * sets * sector);
    for (std::uint32_t w = 1; w < ways; ++w)
        d.find(w * sets * sector);
    std::optional<DirEntry> victim;
    d.allocate(ways * sets * sector, &victim);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->sector, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DirectoryGeometry,
    ::testing::Values(std::make_tuple(64, 4, 512),
                      std::make_tuple(3 * 1024, 8, 512),
                      std::make_tuple(12 * 1024, 8, 512),
                      std::make_tuple(12 * 1024, 8, 128), // 1 line/entry
                      std::make_tuple(6 * 1024, 8, 1024), // 8 lines/entry
                      std::make_tuple(48 * 1024, 16, 512)),
    [](const ::testing::TestParamInfo<DirGeom> &info) {
        return "e" + std::to_string(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param)) + "_s" +
               std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------- config death

TEST(ConfigValidation, RejectsInconsistentConfigs)
{
    auto dies = [](auto mutate, const char *message = "") {
        SystemConfig cfg;
        mutate(cfg);
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), message);
    };
    dies([](SystemConfig &c) { c.numGpus = 0; });
    dies([](SystemConfig &c) { c.smsPerGpu = 130; }); // not / gpms
    dies([](SystemConfig &c) { c.cacheLineBytes = 96; });
    dies([](SystemConfig &c) { c.osPageBytes = 64; });
    dies([](SystemConfig &c) { c.l2BytesPerGpu = 13 * 1024 * 1024 + 2; });
    dies([](SystemConfig &c) { c.dirLinesPerEntry = 3; });
    dies([](SystemConfig &c) { c.dirEntriesPerGpm = 12 * 1024 + 1; });
    dies([](SystemConfig &c) { c.interGpuGBpsPerLink = -1; },
         "interGpuGBpsPerLink");
    // ---- rate, clock and latency bounds (the fabric's pool cast) ----
    dies([](SystemConfig &c) { c.interGpuGBpsPerLink = 1e308; },
         "interGpuGBpsPerLink \\(1e\\+308 GB/s\\) must be in");
    dies([](SystemConfig &c) { c.interGpmGBpsPerGpu = 1e308; },
         "interGpmGBpsPerGpu");
    dies([](SystemConfig &c) { c.interNodeGBpsPerLink = 1e10; },
         "interNodeGBpsPerLink");
    dies([](SystemConfig &c) { c.dramGBpsPerGpu = 1e-300; },
         "dramGBpsPerGpu");
    dies([](SystemConfig &c) { c.gpuFrequencyGhz = 1e-9; },
         "gpuFrequencyGhz");
    dies([](SystemConfig &c) { c.interGpuHopLatency = Tick{1} << 40; },
         "interGpuHopLatency");
    dies([](SystemConfig &c) { c.smIssueWidth = 0; });
    // ---- zero cache/directory geometry (each would divide by zero) ----
    dies([](SystemConfig &c) { c.l1Ways = 0; }, "l1Ways must be non-zero");
    dies([](SystemConfig &c) { c.l2Ways = 0; }, "l2Ways must be non-zero");
    dies([](SystemConfig &c) { c.dirWays = 0; }, "dirWays must be non-zero");
    dies([](SystemConfig &c) { c.dirEntriesPerGpm = 0; },
         "dirEntriesPerGpm must be non-zero");
    dies([](SystemConfig &c) { c.l1Bytes = 0; }, "l1Bytes must be non-zero");
    dies([](SystemConfig &c) { c.l2BytesPerGpu = 0; },
         "l2BytesPerGpu must be non-zero");
    // ---- node tier ----
    dies([](SystemConfig &c) { c.numNodes = 0; });
    dies([](SystemConfig &c) { c.numNodes = 3; }); // 4 GPUs % 3 != 0
    dies([](SystemConfig &c) {
        c.numGpus = 64; // 64 GPUs on one node: GPU sharer mask is 32-bit
        c.smsPerGpu = 8;
        c.l2BytesPerGpu = 4 * 1024 * 1024;
    });
    dies([](SystemConfig &c) {
        c.numNodes = 33; // node sharer mask is 32-bit too
        c.numGpus = 33;
        c.smsPerGpu = 8;
        c.l2BytesPerGpu = 4 * 1024 * 1024;
    });
    dies([](SystemConfig &c) {
        // NHCC's flat mask caps the whole machine at 32 GPMs.
        c.protocol = Protocol::Nhcc;
        c.numNodes = 2;
        c.numGpus = 8;
        c.gpmsPerGpu = 8;
        c.smsPerGpu = 8;
        c.l2BytesPerGpu = 8 * 1024 * 1024;
    });
    dies([](SystemConfig &c) {
        // LP node-cut lookahead is interNodeHopLatency/2: a 1-cycle
        // uplink would make it zero.
        c.numNodes = 2;
        c.numGpus = 4;
        c.interNodeHopLatency = 1;
    });
    // ---- fault timing: now + delay and now + backoff must not wrap ----
    dies([](SystemConfig &c) { c.fault.delayCycles = ~Tick{0}; },
         "fault delayCycles");
    dies([](SystemConfig &c) { c.fault.delayCycles = kMaxFaultCycles + 1; },
         "fault delayCycles");
    dies([](SystemConfig &c) { c.fault.retryTimeout = Tick{1} << 58; },
         "fault retryTimeout");
    dies(
        [](SystemConfig &c) {
            c.fault.retryTimeout = (kMaxFaultCycles >> c.fault.backoffCap) + 1;
        },
        "fault retryTimeout");
    // ---- knobs the chosen model would never read ----
    dies(
        [](SystemConfig &c) {
            c.protocol = Protocol::SwHier;
            c.sharerDowngrade = true;
            c.dirLinesPerEntry = 1;
        },
        "sharerDowngrade requires a hardware coherence protocol");
    dies([](SystemConfig &c) { c.sharerDowngrade = true; },
         "sharerDowngrade requires dirLinesPerEntry == 1 \\(got 4\\)");
    dies(
        [](SystemConfig &c) {
            c.protocol = Protocol::Nhcc;
            c.hierarchicalReleaseFanout = true;
        },
        "hierarchicalReleaseFanout requires the HMG protocol");
    dies([](SystemConfig &c) { c.lpDeterministic = true; },
         "lpDeterministic requires lpJobs > 1");
    // One GPU on one node is one cut unit, so LpPlan::build runs one LP.
    dies(
        [](SystemConfig &c) {
            c.numGpus = 1;
            c.lpJobs = 4;
            c.lpDeterministic = true;
        },
        "lpDeterministic requires more than one LP, but lpJobs \\(4\\) "
        "is clamped to the machine's 1 cut unit \\(gpu tier\\)");
}

TEST(ConfigValidation, AcceptsFaultTimingAtTheCap)
{
    SystemConfig cfg;
    cfg.fault.delayCycles = kMaxFaultCycles;
    cfg.fault.retryTimeout = kMaxFaultCycles >> cfg.fault.backoffCap;
    cfg.validate();
    cfg.fault.backoffCap = 0;
    cfg.fault.retryTimeout = kMaxFaultCycles;
    cfg.validate();
}

TEST(ConfigValidation, AcceptsMultiNodeShapes)
{
    // The shapes the three-level model checker, the CI litmus leg and
    // the scale-out benches run must all validate under HMG.
    {
        SystemConfig cfg; // 2 nodes x 2 GPUs x 2 GPMs
        cfg.protocol = Protocol::Hmg;
        cfg.numNodes = 2;
        cfg.numGpus = 4;
        cfg.gpmsPerGpu = 2;
        cfg.smsPerGpu = 8;
        cfg.l2BytesPerGpu = 2 * 1024 * 1024;
        cfg.validate();
        EXPECT_EQ(cfg.gpusPerNode(), 2u);
        EXPECT_EQ(cfg.totalGpms(), 8u);
    }
    {
        SystemConfig cfg; // 8 nodes x 8 GPUs x 4 GPMs = 64 GPUs
        cfg.protocol = Protocol::Hmg;
        cfg.numNodes = 8;
        cfg.numGpus = 64;
        cfg.gpmsPerGpu = 4;
        cfg.smsPerGpu = 16;
        cfg.l2BytesPerGpu = 4 * 1024 * 1024;
        cfg.dirEntriesPerGpm = 4096;
        cfg.validate();
        EXPECT_EQ(cfg.gpusPerNode(), 8u);
        EXPECT_EQ(cfg.totalGpms(), 256u);
    }
}

TEST(ConfigValidation, AcceptsPaperVariants)
{
    // Every configuration the sensitivity benches sweep must validate.
    for (double bw : {100.0, 200.0, 300.0, 400.0}) {
        SystemConfig cfg;
        cfg.interGpuGBpsPerLink = bw;
        cfg.validate();
    }
    for (std::uint64_t mb : {6, 12, 24}) {
        SystemConfig cfg;
        cfg.l2BytesPerGpu = mb * 1024 * 1024;
        cfg.validate();
    }
    for (std::uint32_t k : {3, 6, 12}) {
        SystemConfig cfg;
        cfg.dirEntriesPerGpm = k * 1024;
        cfg.validate();
    }
    for (std::uint32_t g : {1, 2, 4, 8}) {
        SystemConfig cfg;
        cfg.dirLinesPerEntry = g;
        cfg.dirEntriesPerGpm = 12 * 1024 * 4 / g;
        cfg.validate();
    }
}

} // namespace
} // namespace hmg
