/**
 * @file
 * Unit tests for the coherence directory: entry lifecycle, hierarchical
 * sharer sets, sector coverage, eviction behaviour (Table I "Replace
 * Dir Entry") and the Section VII-C sizing arithmetic.
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/config.hh"
#include "core/directory.hh"

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

} // namespace
} // namespace hmg
