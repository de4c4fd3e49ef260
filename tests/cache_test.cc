/**
 * @file
 * Unit tests for the set-associative tag array and the write-through
 * cache model (L1/L2 storage behaviour), including a property check of
 * the write-back flush against a full walk of the array.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/tag_array.hh"
#include "common/rng.hh"

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

/** Every dirty line in set-then-way order: the full walk flushDirty
 *  replaced, kept as the reference. */
std::vector<CacheLine>
dirtyByWalk(const Cache &c)
{
    std::vector<CacheLine> dirty;
    c.tags().forEachValid([&](const CacheLine &l) {
        if (l.dirty)
            dirty.push_back(l);
    });
    return dirty;
}

std::vector<Addr>
liveLines(const Cache &c)
{
    std::vector<Addr> lines;
    c.tags().forEachValid([&](const CacheLine &l) { lines.push_back(l.addr); });
    return lines;
}

TEST(Cache, FlushDirtyMatchesFullWalk)
{
    // 8 sets x 4 ways over 96 lines: stores and fills evict often, and
    // long flush-free stretches make the dirty-line record compact.
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        Cache c(32 * 128, 4, 128, /*write_allocate=*/true);
        Rng rng(seed);
        Version v = 0;
        std::uint64_t flushed = 0;
        auto line = [&] { return rng.below(96) * 128; };
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t op = rng.below(1000);
            if (op < 450) {
                c.store(line(), ++v, /*mark_dirty=*/rng.chance(0.8),
                        /*serialized=*/rng.chance(0.5));
            } else if (op < 700) {
                c.fill(line(), ++v);
            } else if (op < 850) {
                c.load(line());
            } else if (op < 930) {
                c.invalidateLine(line());
            } else if (op < 960) {
                c.invalidateRange(line(), rng.range(1, 8) * 128);
            } else if (op < 963) {
                c.invalidateAll();
            } else if (step % 4000 < 2000) {
                // (The other half of each 4000 steps never flushes.)
                // Flush; sometimes the callback re-dirties the line it
                // is handed, which the next flush must write back.
                const std::vector<CacheLine> want = dirtyByWalk(c);
                const std::vector<Addr> live = liveLines(c);
                const bool redirty = rng.chance(0.2);
                std::vector<CacheLine> got;
                const std::uint64_t n = c.flushDirty([&](CacheLine l) {
                    got.push_back(l);
                    if (redirty)
                        c.store(l.addr, l.version, /*mark_dirty=*/true);
                });
                ASSERT_EQ(n, want.size()) << "step " << step;
                ASSERT_EQ(got.size(), want.size()) << "step " << step;
                for (std::size_t i = 0; i < want.size(); ++i) {
                    EXPECT_EQ(got[i].addr, want[i].addr) << "step " << step;
                    EXPECT_EQ(got[i].version, want[i].version)
                        << "step " << step;
                    EXPECT_TRUE(got[i].dirty) << "step " << step;
                }
                EXPECT_EQ(liveLines(c), live) << "step " << step;
                EXPECT_EQ(c.dirtyLines(), redirty ? want.size() : 0u)
                    << "step " << step;
                flushed += n;
            }
            if (::testing::Test::HasFailure())
                return;
        }
        EXPECT_GT(flushed, 1000u);
        EXPECT_GT(c.evictions(), 1000u);
    }
}

} // namespace
} // namespace hmg
