/**
 * @file
 * Unit tests for the set-associative tag array and the write-through
 * cache model (L1/L2 storage behaviour).
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/tag_array.hh"

namespace hmg
{
namespace
{

TEST(TagArray, InsertAndLookup)
{
    TagArray t(/*sets=*/4, /*ways=*/2, /*line=*/128);
    EXPECT_EQ(t.lookup(0x100), nullptr);
    CacheLine *l = t.insert(0x100);
    l->version = 7;
    CacheLine *found = t.lookup(0x100);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->version, 7u);
    EXPECT_EQ(t.validCount(), 1u);
}

TEST(TagArray, LruVictimSelection)
{
    TagArray t(1, 2, 128);
    t.insert(0x000);
    t.insert(0x080);
    // Touch line 0 so line 0x080 becomes LRU.
    t.lookup(0x000);
    std::optional<CacheLine> evicted;
    t.insert(0x100, &evicted);
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->addr, 0x080u);
    EXPECT_NE(t.lookup(0x000), nullptr);
    EXPECT_EQ(t.lookup(0x080), nullptr);
}

TEST(TagArray, ReinsertSameLineKeepsVersion)
{
    TagArray t(4, 2, 128);
    t.insert(0x100)->version = 3;
    std::optional<CacheLine> evicted;
    CacheLine *l = t.insert(0x100, &evicted);
    EXPECT_FALSE(evicted);
    EXPECT_EQ(l->version, 3u);
    EXPECT_EQ(t.validCount(), 1u);
}

TEST(TagArray, InvalidateRangeAndAll)
{
    TagArray t(64, 4, 128);
    for (Addr a = 0; a < 64 * 128; a += 128)
        t.insert(a);
    EXPECT_EQ(t.validCount(), 64u);
    EXPECT_EQ(t.invalidateRange(0, 512), 4u);
    EXPECT_EQ(t.validCount(), 60u);
    EXPECT_EQ(t.invalidateAll(), 60u);
    EXPECT_EQ(t.validCount(), 0u);
}

TEST(TagArray, FromCapacityGeometry)
{
    TagArray t = TagArray::fromCapacity(3 * 1024 * 1024, 16, 128);
    EXPECT_EQ(t.numSets() * t.ways() * 128, 3u * 1024 * 1024);
    EXPECT_EQ(t.ways(), 16u);
}

TEST(TagArray, NonPowerOfTwoSets)
{
    // 3 MB / 128 B / 16 ways = 1536 sets — not a power of two; the
    // modulo indexing must still spread lines over all sets.
    TagArray t = TagArray::fromCapacity(3 * 1024 * 1024, 16, 128);
    for (std::uint64_t i = 0; i < t.numSets() * t.ways(); ++i)
        t.insert(i * 128);
    EXPECT_EQ(t.validCount(), t.numSets() * t.ways());
}

TEST(Cache, LoadHitMiss)
{
    Cache c(1024 * 128, 4, 128, /*write_allocate=*/true);
    EXPECT_FALSE(c.load(0x100).hit);
    c.fill(0x100, 42);
    auto r = c.load(0x100);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.version, 42u);
    EXPECT_EQ(c.loads(), 2u);
    EXPECT_EQ(c.loadHits(), 1u);
}

TEST(Cache, WriteAllocatePolicy)
{
    Cache wa(1024 * 128, 4, 128, true);
    EXPECT_TRUE(wa.store(0x100, 1));
    EXPECT_TRUE(wa.load(0x100).hit);

    Cache nwa(1024 * 128, 4, 128, false);
    EXPECT_FALSE(nwa.store(0x100, 1));
    EXPECT_FALSE(nwa.load(0x100).hit);
    // But stores update a present copy.
    nwa.fill(0x100, 1);
    EXPECT_TRUE(nwa.store(0x100, 2));
    EXPECT_EQ(nwa.load(0x100).version, 2u);
}

TEST(Cache, StoreVersionNeverRegresses)
{
    Cache c(1024 * 128, 4, 128, true);
    c.store(0x100, 10);
    c.store(0x100, 5);
    EXPECT_EQ(c.load(0x100).version, 10u);
    c.fill(0x100, 3);
    EXPECT_EQ(c.load(0x100).version, 10u);
}

TEST(Cache, InvalidateCounts)
{
    Cache c(1024 * 128, 4, 128, true);
    for (Addr a = 0; a < 16 * 128; a += 128)
        c.fill(a, 1);
    EXPECT_EQ(c.invalidateRange(0, 512), 4u);
    EXPECT_EQ(c.invalidateAll(), 12u);
    EXPECT_EQ(c.invalidatedLines(), 16u);
    EXPECT_EQ(c.bulkInvalidations(), 1u);
    EXPECT_FALSE(c.invalidateLine(0));
}

TEST(Cache, EvictionHookFires)
{
    // One set, two ways: the third distinct line evicts.
    Cache c(2 * 128, 2, 128, true);
    std::vector<Addr> evicted;
    c.setEvictionHook(
        [&](const CacheLine &l) { evicted.push_back(l.addr); });
    c.fill(0x0000, 1);
    c.fill(0x1000, 2); // same set (capacity 1 set)
    c.fill(0x2000, 3);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0x0000u);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, StatsReport)
{
    Cache c(1024 * 128, 4, 128, true);
    c.fill(0, 1);
    c.load(0);
    c.load(128);
    StatRecorder r;
    c.reportStats(r, "l2");
    EXPECT_DOUBLE_EQ(r.get("l2.loads"), 2);
    EXPECT_DOUBLE_EQ(r.get("l2.load_hits"), 1);
    EXPECT_DOUBLE_EQ(r.get("l2.fills"), 1);
}

} // namespace
} // namespace hmg
