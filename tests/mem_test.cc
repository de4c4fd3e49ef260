/**
 * @file
 * Unit tests for src/mem: NUMA page placement, the versioned memory
 * oracle, and the DRAM channel. Two cases run one thread per LP, the
 * way a time-window run does: the page table's first-touch placement
 * under racing touches, and the memory oracle's per-LP partitions.
 */

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/tag_array.hh"
#include "common/config.hh"
#include "mem/dram.hh"
#include "mem/memory_state.hh"
#include "mem/page_table.hh"
#include "sim/engine.hh"
#include "sim/lp.hh"

namespace hmg
{
namespace
{

constexpr Addr kPage = 2ull * 1024 * 1024;

TEST(PageTable, FirstTouchSticks)
{
    SystemConfig cfg;
    PageTable pt(cfg);
    EXPECT_EQ(pt.touch(0x1000, 5), 5u);
    // Subsequent touches by other GPMs do not move the page.
    EXPECT_EQ(pt.touch(0x2000, 9), 5u);
    EXPECT_EQ(pt.homeOf(0x1fff80), 5u);
    // A different page places independently.
    EXPECT_EQ(pt.touch(kPage, 9), 9u);
    EXPECT_EQ(pt.pageCount(), 2u);
}

TEST(PageTable, RoundRobinPolicy)
{
    SystemConfig cfg;
    cfg.pagePlacement = PagePlacement::RoundRobin;
    PageTable pt(cfg);
    for (std::uint64_t p = 0; p < 32; ++p)
        EXPECT_EQ(pt.touch(p * kPage, 3), p % cfg.totalGpms());
}

TEST(PageTable, IsPlacedAndCounts)
{
    SystemConfig cfg;
    PageTable pt(cfg);
    EXPECT_FALSE(pt.isPlaced(0));
    pt.touch(0, 2);
    pt.touch(kPage, 2);
    pt.touch(2 * kPage, 3);
    EXPECT_TRUE(pt.isPlaced(100));
    EXPECT_FALSE(pt.isPlaced(3 * kPage));
    EXPECT_EQ(pt.homeOf(0), 2u);
    EXPECT_EQ(pt.homeOf(kPage), 2u);
    EXPECT_EQ(pt.homeOf(2 * kPage), 3u);
    EXPECT_EQ(pt.pageCount(), 3u);
}

TEST(PageTableDeath, UnplacedPagePanics)
{
    SystemConfig cfg;
    PageTable pt(cfg);
    EXPECT_DEATH(pt.homeOf(0x123), "unplaced");
}

TEST(MemoryState, SerializedWritesOrderByArrival)
{
    MemoryState m;
    EXPECT_EQ(m.read(0x100), 0u);
    Version v1 = m.allocateVersion();
    Version v2 = m.allocateVersion();
    EXPECT_LT(v1, v2);
    m.write(0x100, v2);
    // Arrival order at the home is the coherence order: a write-through
    // landing later wins even with a numerically smaller version id
    // (two L2s racing to the home may land out of issue order).
    m.write(0x100, v1);
    EXPECT_EQ(m.read(0x100), v1);
    EXPECT_EQ(m.linesWritten(), 1u);
}

TEST(MemoryState, WriteBackFlushNeverClobbersNewerData)
{
    MemoryState m;
    Version v1 = m.allocateVersion();
    Version v2 = m.allocateVersion();
    m.write(0x100, v2);
    // A flushed dirty victim was ordered by its original local store,
    // not by the flush's arrival: it must not roll memory back.
    m.write(0x100, v1, /*serialized=*/false);
    EXPECT_EQ(m.read(0x100), v2);
    // But it does install when memory is genuinely older.
    m.write(0x200, v1, /*serialized=*/false);
    EXPECT_EQ(m.read(0x200), v1);
}

TEST(MemoryStateDeath, RefusesTheFirstVersionALineCannotHold)
{
    // A cache line keeps a version in 31 bits: the last one is handed
    // out and fits a line, the next allocation stops the run with a
    // located error.
    MemoryState m(1, MemoryState::kVersionLimit - 2);
    EXPECT_EQ(m.allocateVersion(), MemoryState::kVersionLimit - 2);
    const Version last = m.allocateVersion();
    EXPECT_EQ(last, (Version{1} << 31) - 1);
    EXPECT_EQ(m.latestVersion(), last);
    CacheLine line;
    line.version = last;
    EXPECT_EQ(line.version, last);
    EXPECT_EXIT((void)m.allocateVersion(), ::testing::ExitedWithCode(1),
                "fatal: store version 2147483648 does not fit the 31 bits "
                "a cache line keeps.* @ .*memory_state.hh:[0-9]+");
}

/** Run `fn` on a thread of its own that runs as LP `lp`, the way an
 *  LP worker of a time-window run does. */
template <typename Fn>
std::thread
asLp(std::uint32_t lp, Fn fn)
{
    return std::thread([lp, fn]() {
        detail::tl_current_lp = lp;
        fn();
    });
}

TEST(PageTable, ConcurrentFirstTouchesAgreeOnOnePlacement)
{
    constexpr std::uint32_t kLps = 4;
    constexpr std::uint64_t kPages = 64;
    SystemConfig cfg;
    PageTable pt(cfg, kLps);
    // Each LP first-touches the same pages in its own order, as a GPM
    // of its own, then asks again; every answer must name one home.
    std::vector<std::vector<GpmId>> seen(kLps,
                                         std::vector<GpmId>(kPages, 0));
    std::vector<std::thread> lps;
    for (std::uint32_t lp = 0; lp < kLps; ++lp) {
        lps.push_back(asLp(lp, [&pt, &seen, lp]() {
            std::vector<std::uint64_t> order(kPages);
            for (std::uint64_t p = 0; p < kPages; ++p)
                order[p] = p;
            std::shuffle(order.begin(), order.end(), std::mt19937(lp));
            const GpmId me = lp * 4;
            for (std::uint64_t p : order)
                seen[lp][p] = pt.touch(p * kPage + lp, me);
            for (std::uint64_t p : order) {
                if (pt.touch(p * kPage, me) != seen[lp][p] ||
                    pt.homeOf(p * kPage + 64) != seen[lp][p] ||
                    !pt.isPlaced(p * kPage))
                    seen[lp][p] = kInvalidGpm;
            }
        }));
    }
    for (std::thread &t : lps)
        t.join();

    EXPECT_EQ(pt.pageCount(), kPages);
    for (std::uint64_t p = 0; p < kPages; ++p) {
        const GpmId home = pt.homeOf(p * kPage);
        EXPECT_EQ(home % 4, 0u) << "page " << p << " placed off a toucher";
        for (std::uint32_t lp = 0; lp < kLps; ++lp)
            EXPECT_EQ(seen[lp][p], home) << "page " << p << ", lp " << lp;
    }
}

TEST(MemoryState, WindowWritesReadBackInsideAndOutsideWindows)
{
    constexpr std::uint32_t kLps = 4;
    MemoryState m(kLps);
    std::vector<Version> inside(kLps, 0);
    std::vector<std::thread> lps;
    // Each LP, inside an engine run (a window), writes the lines homed
    // on it and reads them back from its own partition.
    for (std::uint32_t lp = 0; lp < kLps; ++lp) {
        lps.push_back(asLp(lp, [&m, &inside, lp]() {
            Engine e;
            const Addr line = 0x1000 * (lp + 1);
            const Version v = m.allocateVersion();
            e.schedule(1, [&m, &inside, line, v, lp]() {
                m.write(line, v);
                m.write(line + 0x80, v);
                inside[lp] = m.read(line);
            });
            e.run();
        }));
    }
    for (std::thread &t : lps)
        t.join();

    EXPECT_EQ(m.latestVersion(), kLps);
    EXPECT_EQ(m.linesWritten(), 2u * kLps);
    std::vector<Version> outside;
    for (std::uint32_t lp = 0; lp < kLps; ++lp) {
        const Addr line = 0x1000 * (lp + 1);
        EXPECT_NE(inside[lp], 0u) << "lp " << lp;
        // Outside any window a read consults every partition.
        EXPECT_EQ(m.read(line), inside[lp]) << "lp " << lp;
        EXPECT_EQ(m.read(line + 0x80), inside[lp]) << "lp " << lp;
        outside.push_back(m.read(line));
    }
    std::sort(outside.begin(), outside.end());
    EXPECT_EQ(std::unique(outside.begin(), outside.end()), outside.end());
    EXPECT_EQ(m.read(0x80), 0u);
}

TEST(Dram, BandwidthAndLatency)
{
    SystemConfig cfg;
    Engine e;
    Dram d(e, cfg);
    // ~192 B/cyc, 350 cycle latency: one line takes 350 + ceil(128/192).
    Tick t1 = d.read(128);
    EXPECT_EQ(t1, 351u);
    // Back-to-back lines serialize on the channel.
    Tick t2 = d.read(128);
    EXPECT_GT(t2, t1);
    EXPECT_EQ(d.reads(), 2u);
    d.write(128);
    EXPECT_EQ(d.writes(), 1u);
    EXPECT_EQ(d.bytesTransferred(), 384u);
}

TEST(Dram, SaturatesAtConfiguredBandwidth)
{
    SystemConfig cfg;
    Engine e;
    Dram d(e, cfg);
    const int n = 10000;
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        last = d.read(128);
    // 10k lines x 128 B at ~192 B/cyc ~= 6.66k cycles + latency.
    double expect = n * 128.0 / cfg.dramPortBytesPerCycle() +
                    static_cast<double>(cfg.dramLatency);
    EXPECT_NEAR(static_cast<double>(last), expect, expect * 0.01);
}

} // namespace
} // namespace hmg
