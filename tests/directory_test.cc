/**
 * @file
 * Unit tests for the coherence directory: entry lifecycle, hierarchical
 * sharer sets, sector coverage, eviction behaviour (Table I "Replace
 * Dir Entry"), the Section VII-C sizing arithmetic, and the sharer
 * encoding checked against the invalidation fans that read it.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/directory.hh"
#include "core/sharer_ops.hh"

namespace hmg
{
namespace
{

TEST(DirEntry, SharerSets)
{
    DirEntry e;
    EXPECT_FALSE(e.hasSharers());
    e.addGpm(2);
    e.addGpu(1);
    e.addGpu(3);
    EXPECT_TRUE(e.hasSharers());
    EXPECT_TRUE(e.hasGpm(2));
    EXPECT_FALSE(e.hasGpm(1));
    EXPECT_TRUE(e.hasGpu(3));
    EXPECT_EQ(e.sharerCount(), 3u);
    e.dropGpu(3);
    e.dropGpm(2);
    EXPECT_EQ(e.sharerCount(), 1u);
}

TEST(Directory, FindMissOnEmpty)
{
    Directory d(64, 8, 512);
    EXPECT_EQ(d.find(0x1234), nullptr);
    EXPECT_EQ(d.lookups(), 1u);
    EXPECT_EQ(d.hits(), 0u);
}

TEST(Directory, AllocateAndFindBySector)
{
    Directory d(64, 8, 512);
    DirEntry *e = d.allocate(0x1000);
    e->addGpm(1);
    // Any address in the same 512 B sector resolves to the same entry.
    DirEntry *f = d.find(0x11ff);
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->hasGpm(1));
    // The next sector is a different entry.
    EXPECT_EQ(d.find(0x1200), nullptr);
    EXPECT_EQ(d.validCount(), 1u);
}

TEST(Directory, AllocateIsIdempotentPerSector)
{
    Directory d(64, 8, 512);
    DirEntry *e = d.allocate(0x1000);
    e->addGpu(2);
    DirEntry *f = d.allocate(0x1040);
    EXPECT_EQ(e, f);
    EXPECT_TRUE(f->hasGpu(2));
    EXPECT_EQ(d.allocations(), 1u);
}

TEST(Directory, EvictionReturnsVictim)
{
    // One set of 2 ways: the third distinct sector in that set evicts
    // the LRU entry, whose sharers the protocol must invalidate.
    Directory d(2, 2, 512);
    d.allocate(0 * 512)->addGpm(3);
    d.allocate(2 * 512)->addGpu(1); // sets: sector % 2
    d.find(0 * 512);                // make sector 2*512 the LRU victim
    std::optional<DirEntry> victim;
    d.allocate(4 * 512, &victim);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->sector, 2u * 512);
    EXPECT_TRUE(victim->hasGpu(1));
    EXPECT_EQ(d.evictions(), 1u);
    // The evicted sector is gone; the survivor remains.
    EXPECT_EQ(d.find(2 * 512), nullptr);
    EXPECT_NE(d.find(0), nullptr);
}

TEST(Directory, RemoveTransitionsToInvalid)
{
    Directory d(64, 8, 512);
    d.allocate(0x2000)->addGpm(0);
    EXPECT_TRUE(d.remove(0x2040));
    EXPECT_EQ(d.find(0x2000), nullptr);
    EXPECT_FALSE(d.remove(0x2000));
}

TEST(Directory, FreshEntryHasClearedSharers)
{
    Directory d(2, 2, 512);
    d.allocate(0)->addGpm(1);
    d.allocate(2 * 512)->addGpm(2);
    std::optional<DirEntry> victim;
    DirEntry *e = d.allocate(4 * 512, &victim);
    EXPECT_FALSE(e->hasSharers());
}

TEST(Directory, TableTwoGeometry)
{
    SystemConfig cfg;
    Directory d(cfg.dirEntriesPerGpm, cfg.dirWays,
                cfg.cacheLineBytes * cfg.dirLinesPerEntry);
    EXPECT_EQ(d.numSets() * d.ways(), 12u * 1024);
    EXPECT_EQ(d.sectorBytes(), 512u);
}

TEST(Directory, HardwareCostArithmetic)
{
    // Section VII-C: 6 sharer bits + 1 state bit + 48 tag bits = 55
    // bits per entry; 12K entries -> ~84 KB per GPM, ~2.7% of the 3 MB
    // L2 slice.
    SystemConfig cfg;
    const std::uint32_t bits_per_entry = cfg.dirSharerBits() + 1 + 48;
    EXPECT_EQ(bits_per_entry, 55u);
    const double kb =
        bits_per_entry * static_cast<double>(cfg.dirEntriesPerGpm) / 8.0 /
        1024.0;
    EXPECT_NEAR(kb, 82.5, 2.0); // the paper rounds to 84 KB
    const double pct = kb * 1024.0 /
                       static_cast<double>(cfg.l2BytesPerGpm()) * 100.0;
    EXPECT_NEAR(pct, 2.7, 0.2);
}

TEST(Directory, ManySectorsNoAliasing)
{
    Directory d(1024, 8, 512);
    for (Addr s = 0; s < 1024; ++s)
        d.allocate(s * 512)->addGpm(static_cast<std::uint32_t>(s % 4));
    EXPECT_EQ(d.validCount(), 1024u);
    for (Addr s = 0; s < 1024; ++s) {
        DirEntry *e = d.find(s * 512);
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->hasGpm(static_cast<std::uint32_t>(s % 4)));
    }
}

// ------------------------------------------------------------------
// The sharer encoding (core/sharer_ops.hh) against the fans that read
// it: the coverage checks trust tracksSharer, which restates
// recordSharerBits, so only the fans can catch a wrong encoding.
// ------------------------------------------------------------------

/** One home's entry on a copy's chain. */
struct ChainEntry
{
    GpmId at;
    std::uint32_t gpm = 0, gpu = 0, node = 0;
};

/**
 * For every system home `h` and copy `p != h` of a nodes x gpus x gpms
 * machine (gpus counts the whole machine): record `p`'s chain the way
 * the walk does, one nextHome step at a time, and check that a store
 * fan from `h` with no writer, re-fanned at every intermediate home
 * holding an entry, reaches `p` and nothing off its chain. Returns the
 * first failure, or "".
 */
std::string
chainFailure(std::uint32_t nodes, std::uint32_t gpus, std::uint32_t gpms,
             bool hier)
{
    const SharerTopology topo{gpus, gpms, nodes};
    const bool node_tier = hier && nodes > 1;
    const GpmId total = gpus * gpms;
    std::vector<ChainEntry> homes;
    std::vector<GpmId> work;
    for (GpmId h = 0; h < total; ++h)
        for (GpmId p = 0; p < total; ++p) {
            if (p == h)
                continue;
            const std::string at = " (home " + std::to_string(h) +
                                   ", copy " + std::to_string(p) + ")";
            homes.clear();
            for (GpmId from = p; from != h;) {
                ChainEntry e{nextHome(topo, hier, node_tier, from, h)};
                recordSharerBits(topo, hier, e.at, from, e.gpm, e.gpu,
                                 e.node);
                if (!tracksSharer(topo, hier, e.at, from, e.gpm, e.gpu,
                                  e.node))
                    return "gpm " + std::to_string(e.at) +
                           " does not track " + std::to_string(from) + at;
                homes.push_back(e);
                from = e.at;
            }
            auto onChain = [&](GpmId g) -> const ChainEntry * {
                for (const ChainEntry &e : homes)
                    if (e.at == g)
                        return &e;
                return nullptr;
            };
            auto push = [&](GpmId g) { work.push_back(g); };
            const ChainEntry &top = homes.back();
            forEachInvTarget(topo, hier, h, kInvalidGpm, top.gpm, top.gpu,
                             top.node, h, push);
            bool reached = false;
            while (!work.empty()) {
                const GpmId g = work.back();
                work.pop_back();
                reached |= g == p;
                const ChainEntry *e = onChain(g);
                if (g != p && (!e || g == h))
                    return "the fan reaches gpm " + std::to_string(g) +
                           ", off the chain" + at;
                if (e)
                    forEachRefanTarget(topo, g, e->gpm, e->gpu, h, push);
            }
            if (!reached)
                return "the fan misses the copy" + at;
        }
    return {};
}

TEST(SharerOps, EveryRecordedChainIsReachedByTheFans)
{
    struct Shape
    {
        std::uint32_t nodes, gpus, gpms;
    };
    for (const Shape s : {Shape{1, 1, 4}, Shape{1, 2, 2}, Shape{1, 4, 4},
                          Shape{2, 4, 2}, Shape{2, 4, 4}, Shape{4, 8, 2},
                          Shape{8, 64, 4}}) {
        SCOPED_TRACE(std::to_string(s.nodes) + "x" + std::to_string(s.gpus) +
                     "x" + std::to_string(s.gpms));
        EXPECT_EQ(chainFailure(s.nodes, s.gpus, s.gpms, /*hier=*/true), "");
        // A flat entry has one bit per GPM of a one-node machine.
        if (s.nodes == 1 && s.gpus * s.gpms <= 32) {
            EXPECT_EQ(chainFailure(s.nodes, s.gpus, s.gpms, false), "");
        }
    }
}

} // namespace
} // namespace hmg
