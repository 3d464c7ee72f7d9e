/**
 * @file
 * FlatMap / FlatSet unit and property tests.
 *
 * Beyond the basics, the suite targets exactly the failure modes of
 * open addressing with backward-shift deletion: erasing in the middle
 * of a probe chain, wrapping chains at the table boundary, and long
 * mixed histories checked against a std::unordered_map oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"

namespace dewrite {
namespace {

TEST(FlatMap, EmptyBehaviour)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_FALSE(map.contains(42));
    EXPECT_EQ(map.findIndex(42), (FlatMap<std::uint64_t, int>::npos));
    EXPECT_FALSE(map.erase(42));
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> map;
    auto [value, inserted] = map.tryEmplace(7, 70);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 70);

    auto [again, reinserted] = map.tryEmplace(7, 700);
    EXPECT_FALSE(reinserted);
    EXPECT_EQ(*again, 70) << "tryEmplace must not overwrite";

    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 70);

    EXPECT_TRUE(map.erase(7));
    EXPECT_FALSE(map.erase(7));
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(7), nullptr);
}

TEST(FlatMap, BracketDefaultInserts)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    EXPECT_EQ(map[5], 0u);
    map[5] += 3;
    EXPECT_EQ(map[5], 3u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, GrowthAcrossRehashKeepsContents)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    constexpr std::uint64_t kCount = 10000;
    for (std::uint64_t i = 0; i < kCount; ++i)
        map[i * 977] = i;
    EXPECT_EQ(map.size(), kCount);
    for (std::uint64_t i = 0; i < kCount; ++i) {
        const std::uint64_t *v = map.find(i * 977);
        ASSERT_NE(v, nullptr) << "key " << i * 977;
        EXPECT_EQ(*v, i);
    }
}

TEST(FlatMap, ReserveAvoidsRehash)
{
    FlatMap<std::uint64_t, int> map;
    map.reserve(1000);
    const std::size_t cap = map.capacity();
    EXPECT_GE(cap * 7, 1000u * 10 / 2) << "load must stay <= 0.7";
    for (std::uint64_t i = 0; i < 1000; ++i)
        map[i] = 1;
    EXPECT_EQ(map.capacity(), cap) << "sized-for inserts must not rehash";
}

TEST(FlatMap, ClearKeepsCapacity)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t i = 0; i < 100; ++i)
        map[i] = 1;
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_EQ(map.find(5), nullptr);
    map[5] = 2;
    EXPECT_EQ(*map.find(5), 2);
}

/** Forces every key into one probe chain to exercise backward shift. */
struct CollidingHash
{
    std::uint64_t operator()(std::uint64_t) const { return 0; }
};

TEST(FlatMap, BackshiftEraseCompactsChain)
{
    FlatMap<std::uint64_t, int, CollidingHash> map;
    // All keys collide: one chain of length 8 starting at slot 0.
    for (std::uint64_t i = 0; i < 8; ++i)
        map.tryEmplace(i, static_cast<int>(i));

    // Erase in the middle; every follower must stay findable.
    EXPECT_TRUE(map.erase(3));
    for (std::uint64_t i = 0; i < 8; ++i) {
        if (i == 3) {
            EXPECT_FALSE(map.contains(i));
        } else {
            ASSERT_NE(map.find(i), nullptr) << "lost key " << i;
            EXPECT_EQ(*map.find(i), static_cast<int>(i));
        }
    }

    // Erase the head, then the tail; chain stays intact throughout.
    EXPECT_TRUE(map.erase(0));
    EXPECT_TRUE(map.erase(7));
    for (std::uint64_t i : { 1ul, 2ul, 4ul, 5ul, 6ul })
        EXPECT_TRUE(map.contains(i)) << "lost key " << i;
    EXPECT_EQ(map.size(), 5u);
}

/** Pins chains near the top of the table so probes wrap past the end. */
struct WrappingHash
{
    std::uint64_t operator()(std::uint64_t key) const
    {
        // Capacity is at least 16; start every chain at slot 14 so a
        // handful of colliding keys wraps around the mask boundary.
        (void)key;
        return 14;
    }
};

TEST(FlatMap, BackshiftEraseAcrossWraparound)
{
    FlatMap<std::uint64_t, int, WrappingHash> map;
    for (std::uint64_t i = 0; i < 6; ++i)
        map.tryEmplace(i, static_cast<int>(i));
    ASSERT_EQ(map.capacity(), 16u);

    // The chain occupies slots 14, 15, 0, 1, 2, 3. Erasing the entry
    // at the boundary must shift the wrapped followers back.
    EXPECT_TRUE(map.erase(1)); // Lives at slot 15.
    for (std::uint64_t i : { 0ul, 2ul, 3ul, 4ul, 5ul }) {
        ASSERT_NE(map.find(i), nullptr) << "lost key " << i;
        EXPECT_EQ(*map.find(i), static_cast<int>(i));
    }
}

TEST(FlatMap, EraseDuringIndexedProbe)
{
    // findIndex handles are valid until the next mutation; after an
    // eraseIndex, re-derived handles must still resolve correctly.
    FlatMap<std::uint64_t, int, CollidingHash> map;
    for (std::uint64_t i = 0; i < 5; ++i)
        map.tryEmplace(i, static_cast<int>(i * 10));

    const std::size_t idx = map.findIndex(2);
    ASSERT_NE(idx, (FlatMap<std::uint64_t, int, CollidingHash>::npos));
    EXPECT_EQ(map.keyAt(idx), 2u);
    EXPECT_EQ(map.valueAt(idx), 20);
    map.eraseIndex(idx);

    EXPECT_FALSE(map.contains(2));
    for (std::uint64_t i : { 0ul, 1ul, 3ul, 4ul }) {
        const std::size_t at = map.findIndex(i);
        ASSERT_NE(at, (FlatMap<std::uint64_t, int, CollidingHash>::npos));
        EXPECT_EQ(map.keyAt(at), i);
        EXPECT_EQ(map.valueAt(at), static_cast<int>(i * 10));
    }
}

TEST(FlatMap, ForEachSortedAscending)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t key : { 900ul, 3ul, 77ul, 500ul, 12ul })
        map[key] = static_cast<int>(key);
    std::vector<std::uint64_t> keys;
    map.forEachSorted([&](std::uint64_t key, int value) {
        keys.push_back(key);
        EXPECT_EQ(value, static_cast<int>(key));
    });
    const std::vector<std::uint64_t> expect = { 3, 12, 77, 500, 900 };
    EXPECT_EQ(keys, expect);
}

TEST(FlatMap, IterationOrderDeterministic)
{
    // The same operation history must produce the same slot order.
    auto build = [] {
        FlatMap<std::uint64_t, int> map;
        Rng rng(123);
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t key = rng.nextBelow(500);
            if (rng.chance(0.3))
                map.erase(key);
            else
                map[key] = i;
        }
        std::vector<std::pair<std::uint64_t, int>> order;
        map.forEach([&](std::uint64_t key, int value) {
            order.emplace_back(key, value);
        });
        return order;
    };
    EXPECT_EQ(build(), build());
}

TEST(FlatMap, PropertyAgainstUnorderedMapOracle)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    Rng rng(0xfeedface);

    for (int step = 0; step < 30000; ++step) {
        const std::uint64_t key = rng.nextBelow(2000);
        const std::uint64_t op = rng.nextBelow(10);
        if (op < 5) {
            const std::uint64_t value = rng.next64();
            auto [slot, inserted] = map.tryEmplace(key, value);
            const auto [it, oinserted] = oracle.try_emplace(key, value);
            EXPECT_EQ(inserted, oinserted);
            EXPECT_EQ(*slot, it->second);
        } else if (op < 7) {
            map[key] += 1;
            oracle[key] += 1;
        } else if (op < 9) {
            EXPECT_EQ(map.erase(key), oracle.erase(key) > 0);
        } else {
            const std::uint64_t *found = map.find(key);
            const auto it = oracle.find(key);
            if (it == oracle.end()) {
                EXPECT_EQ(found, nullptr);
            } else {
                ASSERT_NE(found, nullptr);
                EXPECT_EQ(*found, it->second);
            }
        }
        ASSERT_EQ(map.size(), oracle.size());
    }

    // Full cross-check at the end: every oracle entry present, nothing
    // extra surviving in the flat map.
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t key, std::uint64_t value) {
        ++visited;
        const auto it = oracle.find(key);
        ASSERT_NE(it, oracle.end()) << "phantom key " << key;
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, oracle.size());
}

TEST(FlatSet, InsertContainsErase)
{
    FlatSet<std::uint64_t> set;
    EXPECT_TRUE(set.insert(9));
    EXPECT_FALSE(set.insert(9));
    EXPECT_TRUE(set.contains(9));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.erase(9));
    EXPECT_FALSE(set.erase(9));
    EXPECT_TRUE(set.empty());
}

TEST(FlatSet, SortedIteration)
{
    FlatSet<std::uint64_t> set;
    for (std::uint64_t key : { 42ul, 7ul, 19ul })
        set.insert(key);
    std::vector<std::uint64_t> keys;
    set.forEachSorted([&](std::uint64_t key) { keys.push_back(key); });
    const std::vector<std::uint64_t> expect = { 7, 19, 42 };
    EXPECT_EQ(keys, expect);
}

} // namespace
} // namespace dewrite
