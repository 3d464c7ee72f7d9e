/**
 * @file
 * HashStore tests: chains, references, saturation.
 */

#include "dedup/hash_store.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dewrite {
namespace {

TEST(HashStoreTest, EmptyLookup)
{
    HashStore store;
    EXPECT_TRUE(store.lookup(0x1234).empty());
    EXPECT_EQ(store.size(), 0u);
}

TEST(HashStoreTest, InsertAndLookup)
{
    HashStore store;
    store.insert(0xaaaa, 7);
    const auto &chain = store.lookup(0xaaaa);
    ASSERT_EQ(chain.size(), 1u);
    EXPECT_EQ(chain[0].realAddr, 7u);
    EXPECT_EQ(chain[0].reference, 1u);
    EXPECT_EQ(store.size(), 1u);
}

TEST(HashStoreTest, CollisionChains)
{
    HashStore store;
    store.insert(0xbbbb, 1);
    store.insert(0xbbbb, 2);
    EXPECT_EQ(store.lookup(0xbbbb).size(), 2u);
    EXPECT_EQ(store.collidingEntries(), 2u);
    EXPECT_EQ(store.maxChainLength(), 2u);
    EXPECT_EQ(store.distinctHashes(), 1u);
}

TEST(HashStoreTest, ReferenceLifecycle)
{
    HashStore store;
    store.insert(0xcccc, 5);
    EXPECT_TRUE(store.addReference(0xcccc, 5));
    EXPECT_EQ(store.reference(0xcccc, 5), 2u);
    EXPECT_FALSE(store.dropReference(0xcccc, 5)); // 2 -> 1, survives.
    EXPECT_TRUE(store.dropReference(0xcccc, 5));  // 1 -> 0, removed.
    EXPECT_TRUE(store.lookup(0xcccc).empty());
    EXPECT_EQ(store.size(), 0u);
}

TEST(HashStoreTest, SaturationRefusesNewReferences)
{
    HashStore store;
    store.insert(0xdddd, 3);
    for (int i = 1; i < 255; ++i)
        EXPECT_TRUE(store.addReference(0xdddd, 3));
    EXPECT_EQ(store.reference(0xdddd, 3), 255u);
    // The 256th reference is refused (Section III-B2).
    EXPECT_FALSE(store.addReference(0xdddd, 3));
    EXPECT_EQ(store.reference(0xdddd, 3), 255u);
    EXPECT_EQ(store.saturationRefusals(), 1u);
}

TEST(HashStoreTest, SaturatedRecordIsPinned)
{
    HashStore store;
    store.insert(0xeeee, 4);
    for (int i = 1; i < 255; ++i)
        store.addReference(0xeeee, 4);
    // Once saturated, drops never free the record: the true count is
    // unknown.
    for (int i = 0; i < 300; ++i)
        EXPECT_FALSE(store.dropReference(0xeeee, 4));
    EXPECT_EQ(store.reference(0xeeee, 4), 255u);
}

TEST(HashStoreTest, DropOnlyAffectsMatchingSlot)
{
    HashStore store;
    store.insert(0xffff, 1);
    store.insert(0xffff, 2);
    EXPECT_TRUE(store.dropReference(0xffff, 1));
    const auto &chain = store.lookup(0xffff);
    ASSERT_EQ(chain.size(), 1u);
    EXPECT_EQ(chain[0].realAddr, 2u);
}

TEST(HashStoreTest, ForEachVisitsEverything)
{
    HashStore store;
    store.insert(1, 10);
    store.insert(2, 20);
    store.insert(2, 30);
    std::size_t visited = 0;
    store.forEach([&](std::uint32_t, const HashEntry &) { ++visited; });
    EXPECT_EQ(visited, 3u);
}

TEST(HashStoreTest, SpillBeyondInlineBuffer)
{
    // Chains hold two entries inline; the third spills to the pool.
    HashStore store;
    store.insert(0xabcd, 1);
    store.insert(0xabcd, 2);
    EXPECT_EQ(store.spilledChains(), 0u);
    store.insert(0xabcd, 3);
    store.insert(0xabcd, 4);
    EXPECT_EQ(store.spilledChains(), 1u);

    const auto chain = store.lookup(0xabcd);
    ASSERT_EQ(chain.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(chain[i].realAddr, i + 1) << "append order broken at "
                                            << i;
    }
    EXPECT_EQ(store.maxChainLength(), 4u);
    EXPECT_EQ(store.collidingEntries(), 4u);
    EXPECT_EQ(store.distinctHashes(), 1u);
}

TEST(HashStoreTest, EraseFromSpilledChainKeepsOrder)
{
    HashStore store;
    for (LineAddr addr = 1; addr <= 5; ++addr)
        store.insert(0x1111, addr);

    // Removing an inline entry pulls the oldest spill entry forward;
    // logical order (append order minus the erased entry) holds.
    EXPECT_TRUE(store.dropReference(0x1111, 2));
    {
        const auto chain = store.lookup(0x1111);
        ASSERT_EQ(chain.size(), 4u);
        const LineAddr expect[] = { 1, 3, 4, 5 };
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_EQ(chain[i].realAddr, expect[i]);
    }

    // Shrinking back to the inline buffer returns the spill to the pool.
    EXPECT_TRUE(store.dropReference(0x1111, 4));
    EXPECT_TRUE(store.dropReference(0x1111, 5));
    EXPECT_EQ(store.spilledChains(), 0u);
    {
        const auto chain = store.lookup(0x1111);
        ASSERT_EQ(chain.size(), 2u);
        EXPECT_EQ(chain[0].realAddr, 1u);
        EXPECT_EQ(chain[1].realAddr, 3u);
    }
}

TEST(HashStoreTest, SpillPoolIsRecycled)
{
    // Growing a second chain after the first shrank must reuse the
    // freed spill vector rather than growing the pool.
    HashStore store;
    for (LineAddr addr = 1; addr <= 4; ++addr)
        store.insert(0xaa, addr);
    EXPECT_EQ(store.spilledChains(), 1u);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        store.dropReference(0xaa, addr);
    EXPECT_EQ(store.spilledChains(), 0u);
    EXPECT_EQ(store.size(), 0u);

    for (LineAddr addr = 10; addr <= 13; ++addr)
        store.insert(0xbb, addr);
    EXPECT_EQ(store.spilledChains(), 1u);
    const auto chain = store.lookup(0xbb);
    ASSERT_EQ(chain.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(chain[i].realAddr, 10 + i);
}

TEST(HashStoreTest, ReferencesTrackedPerEntryInSpilledChain)
{
    HashStore store;
    for (LineAddr addr = 1; addr <= 4; ++addr)
        store.insert(0xcc, addr);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(store.addReference(0xcc, 4)); // Spilled entry.
    EXPECT_EQ(store.reference(0xcc, 4), 4u);
    EXPECT_EQ(store.reference(0xcc, 1), 1u);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(store.dropReference(0xcc, 4));
    EXPECT_TRUE(store.dropReference(0xcc, 4));
    EXPECT_EQ(store.lookup(0xcc).size(), 3u);
}

TEST(HashStoreTest, RestoreInstallsClampedCount)
{
    HashStore store;
    store.restore(0x77, 9, 42);
    EXPECT_EQ(store.reference(0x77, 9), 42u);
    store.restore(0x77, 10, 1000); // Above the cap: clamps to 255.
    EXPECT_EQ(store.reference(0x77, 10), 255u);
    EXPECT_EQ(store.size(), 2u);
}

TEST(HashStoreTest, ForEachAscendingHashChainOrderWithin)
{
    HashStore store;
    store.insert(300, 1);
    store.insert(5, 2);
    store.insert(300, 3);
    store.insert(300, 4); // Spills.
    store.insert(40, 5);

    std::vector<std::pair<std::uint64_t, LineAddr>> seen;
    store.forEach([&](std::uint64_t hash, const HashEntry &entry) {
        seen.emplace_back(hash, entry.realAddr);
    });
    const std::vector<std::pair<std::uint64_t, LineAddr>> expect = {
        { 5, 2 }, { 40, 5 }, { 300, 1 }, { 300, 3 }, { 300, 4 },
    };
    EXPECT_EQ(seen, expect);
}

TEST(HashStoreDeathTest, DoubleInsertPanics)
{
    HashStore store;
    store.insert(7, 7);
    EXPECT_DEATH(store.insert(7, 7), "duplicate insert");
}

TEST(HashStoreDeathTest, AddReferenceToAbsentPanics)
{
    HashStore store;
    EXPECT_DEATH(store.addReference(9, 9), "absent");
}

TEST(HashStoreDeathTest, DropReferenceFromAbsentPanics)
{
    HashStore store;
    store.insert(5, 1);
    EXPECT_DEATH(store.dropReference(5, 99), "absent");
}

} // namespace
} // namespace dewrite
