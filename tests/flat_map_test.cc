/**
 * @file
 * Unit tests for common/flat_map.hh: FlatMap against a std::map
 * reference, move-only values, byte-string keys, and the absence of any
 * iteration API.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hh"

namespace hmg
{
namespace
{

template <typename M>
concept HasBegin = requires(M &m) { m.begin(); };
template <typename M>
concept HasEnd = requires(M &m) { m.end(); };

// A FlatMap cannot be iterated, so hash order can never reach a result.
static_assert(!HasBegin<FlatMap<std::uint64_t, int>>);
static_assert(!HasEnd<FlatMap<std::uint64_t, int>>);
static_assert(!std::ranges::range<FlatMap<std::string, int>>);
// The concepts do detect an iterable type.
static_assert(HasBegin<std::map<int, int>> && HasEnd<std::map<int, int>>);

TEST(FlatMap, MatchesStdMapOverRandomOps)
{
    // A small key range keeps hits, misses and erases all frequent, and
    // the map grows through several doublings while probe runs wrap
    // past the end of the table. Key 0 is an ordinary key.
    std::mt19937_64 rng(12345);
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> ref;
    for (int step = 0; step < 200000; ++step) {
        const std::uint64_t key = rng() % (step < 100000 ? 2048 : 256);
        const std::uint64_t val = rng();
        switch (rng() % 4) {
          case 0: {
            auto [v, inserted] = map.tryEmplace(key, val);
            const auto [it, ref_inserted] = ref.try_emplace(key, val);
            ASSERT_EQ(inserted, ref_inserted);
            ASSERT_EQ(*v, it->second);
            break;
          }
          case 1:
            map[key] += val;
            ref[key] += val;
            break;
          case 2: {
            const std::uint64_t *v = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
            break;
          }
          case 3:
            ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
            break;
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    for (std::uint64_t key = 0; key < 2048; ++key) {
        const auto it = ref.find(key);
        const std::uint64_t *v = map.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << key;
        if (v) {
            EXPECT_EQ(*v, it->second);
        }
    }
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(0), nullptr);
}

TEST(FlatMap, WrapAroundEraseKeepsRunReachable)
{
    // Keys whose home is the last slot of the first 8-slot table: their
    // probe run wraps to slot 0 and beyond. Erasing the head of the run
    // must pull the wrapped members back, across the table's end.
    std::vector<std::uint64_t> last;
    std::uint64_t first_home = 0;
    for (std::uint64_t k = 1; last.size() < 3 || first_home == 0; ++k) {
        if ((flatHash(k) & 7) == 7 && last.size() < 3)
            last.push_back(k);
        else if ((flatHash(k) & 7) == 0 && first_home == 0)
            first_home = k;
    }
    FlatMap<std::uint64_t, std::uint64_t> map;
    map[last[0]] = 1;
    map[last[1]] = 2;
    map[first_home] = 3;
    map[last[2]] = 4;
    EXPECT_TRUE(map.erase(last[0]));
    EXPECT_EQ(map.find(last[0]), nullptr);
    ASSERT_NE(map.find(last[1]), nullptr);
    ASSERT_NE(map.find(first_home), nullptr);
    ASSERT_NE(map.find(last[2]), nullptr);
    EXPECT_EQ(*map.find(last[1]), 2u);
    EXPECT_EQ(*map.find(first_home), 3u);
    EXPECT_EQ(*map.find(last[2]), 4u);
    EXPECT_FALSE(map.erase(last[0]));
    EXPECT_EQ(map.size(), 3u);
}

TEST(FlatMap, MoveOnlyValuesSurviveGrowthAndErase)
{
    FlatMap<std::uint64_t, std::vector<std::unique_ptr<int>>> map;
    for (int i = 0; i < 1000; ++i)
        map[static_cast<std::uint64_t>(i) * 128].push_back(
            std::make_unique<int>(i));
    for (int i = 0; i < 1000; i += 2)
        ASSERT_TRUE(map.erase(static_cast<std::uint64_t>(i) * 128));
    EXPECT_EQ(map.size(), 500u);
    for (int i = 1; i < 1000; i += 2) {
        auto *list = map.find(static_cast<std::uint64_t>(i) * 128);
        ASSERT_NE(list, nullptr);
        ASSERT_EQ(list->size(), 1u);
        EXPECT_EQ(*list->front(), i);
    }
    // The MSHR pattern: move the value out, then erase its key.
    auto *list = map.find(128);
    ASSERT_NE(list, nullptr);
    auto taken = std::move(*list);
    map.erase(128);
    EXPECT_EQ(*taken.front(), 1);

    FlatMap<std::uint64_t, std::unique_ptr<int>> owned;
    auto [p, inserted] = owned.tryEmplace(7, std::make_unique<int>(42));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(**p, 42);
    EXPECT_FALSE(owned.tryEmplace(7, std::make_unique<int>(0)).second);
    EXPECT_EQ(**owned.find(7), 42);
}

TEST(FlatMap, ByteStringKeys)
{
    FlatMap<std::string, std::uint32_t> map;
    const std::string a("a", 1);
    const std::string a_nul_b("a\0b", 3);
    const std::string a_nul_c("a\0c", 3);
    map[a] = 1;
    map[a_nul_b] = 2;
    EXPECT_EQ(*map.find(a), 1u);
    EXPECT_EQ(*map.find(a_nul_b), 2u);
    EXPECT_EQ(map.find(a_nul_c), nullptr);
    EXPECT_EQ(map.find(std::string()), nullptr);
    for (std::uint32_t i = 0; i < 500; ++i)
        map.tryEmplace("state-" + std::to_string(i), i);
    for (std::uint32_t i = 0; i < 500; i += 3)
        EXPECT_TRUE(map.erase("state-" + std::to_string(i)));
    for (std::uint32_t i = 0; i < 500; ++i) {
        const std::uint32_t *v = map.find("state-" + std::to_string(i));
        if (i % 3 == 0) {
            EXPECT_EQ(v, nullptr);
        } else {
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, i);
        }
    }
    EXPECT_EQ(*std::as_const(map).find(a_nul_b), 2u);
}

} // namespace
} // namespace hmg
