/**
 * @file
 * HashStore tests: chains, references, saturation, and a randomized
 * property test against a std::map oracle.
 */

#include "dedup/hash_store.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace dewrite {
namespace {

/** The chain of @p hash in append order (oldest first). */
std::vector<LineAddr>
chainOf(const HashStore &store, std::uint64_t hash)
{
    std::vector<LineAddr> addrs;
    for (const HashEntry entry : store.lookup(hash))
        addrs.push_back(entry.realAddr);
    std::reverse(addrs.begin(), addrs.end());
    return addrs;
}

TEST(HashStoreTest, EmptyLookup)
{
    SlotTable slots;
    HashStore store(slots);
    EXPECT_TRUE(store.lookup(0x1234).empty());
    EXPECT_EQ(store.size(), 0u);
}

TEST(HashStoreTest, InsertAndLookup)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(0xaaaa, 7);
    const auto chain = store.lookup(0xaaaa);
    ASSERT_EQ(chain.size(), 1u);
    const HashEntry entry = *chain.begin();
    EXPECT_EQ(entry.realAddr, 7u);
    EXPECT_EQ(entry.reference, 1u);
    EXPECT_EQ(entry.strongFp, nullptr);
    EXPECT_EQ(store.size(), 1u);
}

TEST(HashStoreTest, CollisionChains)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(0xbbbb, 1);
    store.insert(0xbbbb, 2);
    EXPECT_EQ(store.lookup(0xbbbb).size(), 2u);
    EXPECT_EQ(store.collidingEntries(), 2u);
    EXPECT_EQ(store.maxChainLength(), 2u);
    EXPECT_EQ(store.distinctHashes(), 1u);
}

TEST(HashStoreTest, ReferenceLifecycle)
{
    SlotTable slots;
    HashStore store(slots);
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
    SlotTable slots;
    HashStore store(slots);
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
    SlotTable slots;
    HashStore store(slots);
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
    SlotTable slots;
    HashStore store(slots);
    store.insert(0xffff, 1);
    store.insert(0xffff, 2);
    EXPECT_TRUE(store.dropReference(0xffff, 1));
    EXPECT_EQ(chainOf(store, 0xffff), std::vector<LineAddr>{ 2 });
}

TEST(HashStoreTest, ForEachVisitsEverything)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(1, 10);
    store.insert(2, 20);
    store.insert(2, 30);
    std::size_t visited = 0;
    store.forEach([&](std::uint32_t, const HashEntry &) { ++visited; });
    EXPECT_EQ(visited, 3u);
}

TEST(HashStoreTest, LookupIsNewestFirst)
{
    SlotTable slots;
    HashStore store(slots);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        store.insert(0xabcd, addr);
    std::vector<LineAddr> walked;
    for (const HashEntry entry : store.lookup(0xabcd))
        walked.push_back(entry.realAddr);
    EXPECT_EQ(walked, (std::vector<LineAddr>{ 4, 3, 2, 1 }));
    EXPECT_EQ(store.maxChainLength(), 4u);
    EXPECT_EQ(store.collidingEntries(), 4u);
    EXPECT_EQ(store.distinctHashes(), 1u);
}

TEST(HashStoreTest, EraseFromChainMiddleKeepsOrder)
{
    SlotTable slots;
    HashStore store(slots);
    for (LineAddr addr = 1; addr <= 5; ++addr)
        store.insert(0x1111, addr);

    // Logical order is append order minus the erased entries.
    EXPECT_TRUE(store.dropReference(0x1111, 2));
    EXPECT_EQ(chainOf(store, 0x1111),
              (std::vector<LineAddr>{ 1, 3, 4, 5 }));
    EXPECT_TRUE(store.dropReference(0x1111, 5)); // The newest.
    EXPECT_TRUE(store.dropReference(0x1111, 1)); // The oldest.
    EXPECT_EQ(chainOf(store, 0x1111), (std::vector<LineAddr>{ 3, 4 }));
    EXPECT_EQ(store.size(), 2u);
}

TEST(HashStoreTest, FreedSlotJoinsAnotherChain)
{
    // A slot holds one content at a time: once its record dies it can
    // be recorded under a different hash, and the old chain forgets it.
    SlotTable slots;
    HashStore store(slots);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        store.insert(0xaa, addr);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        EXPECT_TRUE(store.dropReference(0xaa, addr));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.distinctHashes(), 0u);

    for (LineAddr addr = 1; addr <= 4; ++addr)
        store.insert(0xbb, addr);
    EXPECT_TRUE(store.lookup(0xaa).empty());
    EXPECT_EQ(store.reference(0xaa, 2), 0u);
    EXPECT_EQ(chainOf(store, 0xbb), (std::vector<LineAddr>{ 1, 2, 3, 4 }));
}

TEST(HashStoreTest, ReferencesTrackedPerEntryInLongChain)
{
    SlotTable slots;
    HashStore store(slots);
    for (LineAddr addr = 1; addr <= 4; ++addr)
        store.insert(0xcc, addr);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(store.addReference(0xcc, 4));
    EXPECT_EQ(store.reference(0xcc, 4), 4u);
    EXPECT_EQ(store.reference(0xcc, 1), 1u);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(store.dropReference(0xcc, 4));
    EXPECT_TRUE(store.dropReference(0xcc, 4));
    EXPECT_EQ(store.lookup(0xcc).size(), 3u);
}

TEST(HashStoreTest, ReferenceUnderAnotherHashIsAbsent)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(0x10, 8);
    EXPECT_EQ(store.reference(0x10, 8), 1u);
    EXPECT_EQ(store.reference(0x20, 8), 0u);
    EXPECT_EQ(store.strongFpOf(0x20, 8), nullptr);
}

TEST(HashStoreTest, StrongFingerprintIsDroppedWithTheRecord)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(0x30, 6);
    EXPECT_EQ(store.strongFpOf(0x30, 6), nullptr);
    store.setStrongFp(0x30, 6, StrongFp{ 1, 2 });
    ASSERT_NE(store.strongFpOf(0x30, 6), nullptr);
    EXPECT_EQ(*store.strongFpOf(0x30, 6), (StrongFp{ 1, 2 }));
    EXPECT_EQ(*(*store.lookup(0x30).begin()).strongFp, (StrongFp{ 1, 2 }));
    // Rewriting the slot drops and re-inserts its record: the cached
    // fingerprint described the old content and must not survive.
    EXPECT_TRUE(store.dropReference(0x30, 6));
    store.insert(0x40, 6);
    EXPECT_EQ(store.strongFpOf(0x40, 6), nullptr);
}

TEST(HashStoreTest, RestoreInstallsClampedCount)
{
    SlotTable slots;
    HashStore store(slots);
    store.restore(0x77, 9, 42);
    EXPECT_EQ(store.reference(0x77, 9), 42u);
    store.restore(0x77, 10, 1000); // Above the cap: clamps to 255.
    EXPECT_EQ(store.reference(0x77, 10), 255u);
    EXPECT_EQ(store.size(), 2u);
}

TEST(HashStoreTest, ForEachAscendingHashChainOrderWithin)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(300, 1);
    store.insert(5, 2);
    store.insert(300, 3);
    store.insert(300, 4);
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

/** One oracle record: the store's observable state for a slot. */
struct OracleEntry
{
    LineAddr addr;
    std::uint8_t reference;
    bool fpValid;
    StrongFp fp;
};

using Oracle = std::map<std::uint64_t, std::vector<OracleEntry>>;

/** Checks every read-side query of @p store against @p oracle. */
void
expectMatchesOracle(const HashStore &store, const Oracle &oracle,
                    std::uint64_t refusals)
{
    std::size_t records = 0;
    std::size_t colliding = 0;
    std::size_t longest = 0;
    std::vector<std::pair<std::uint64_t, LineAddr>> expect_order;
    for (const auto &[hash, chain] : oracle) {
        records += chain.size();
        if (chain.size() > 1)
            colliding += chain.size();
        longest = std::max(longest, chain.size());
        // lookup() walks newest-first.
        auto want = chain.rbegin();
        for (const HashEntry entry : store.lookup(hash)) {
            ASSERT_NE(want, chain.rend()) << "chain too long, hash " << hash;
            EXPECT_EQ(entry.realAddr, want->addr);
            EXPECT_EQ(entry.reference, want->reference);
            ASSERT_EQ(entry.strongFp != nullptr, want->fpValid);
            if (want->fpValid) {
                EXPECT_EQ(*entry.strongFp, want->fp);
            }
            ++want;
        }
        EXPECT_EQ(want, chain.rend()) << "chain too short, hash " << hash;
        for (const OracleEntry &entry : chain)
            expect_order.emplace_back(hash, entry.addr);
    }
    EXPECT_EQ(store.size(), records);
    EXPECT_EQ(store.distinctHashes(), oracle.size());
    EXPECT_EQ(store.collidingEntries(), colliding);
    EXPECT_EQ(store.maxChainLength(), longest);
    EXPECT_EQ(store.saturationRefusals(), refusals);

    std::vector<std::pair<std::uint64_t, LineAddr>> order;
    store.forEach([&](std::uint64_t hash, const HashEntry &entry) {
        order.emplace_back(hash, entry.realAddr);
    });
    EXPECT_EQ(order, expect_order);
}

TEST(HashStoreTest, PropertyAgainstMapOracle)
{
    // Four hashes over 48 slots force long collision chains; the mix
    // covers every mutation, removal at every chain position and
    // saturation (restore installs counts near and above the cap).
    constexpr std::uint64_t kHashes[] = { 0x5, 0x1000000005,
                                          0xdeadbeef, 0x7 };
    constexpr LineAddr kSlots = 48;
    std::size_t max_chain = 0;
    std::size_t middle_removals = 0;
    std::size_t saturated_refusals = 0;

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::mt19937_64 rng(seed);
        SlotTable slots;
    HashStore store(slots);
        Oracle oracle;
        std::map<LineAddr, std::uint64_t> slot_hash; // Live slots.
        std::uint64_t refusals = 0;

        const auto pick = [&](std::uint64_t n) {
            return static_cast<std::size_t>(rng() % n);
        };
        const auto find = [&](std::uint64_t hash, LineAddr addr) {
            std::vector<OracleEntry> &chain = oracle[hash];
            return std::find_if(chain.begin(), chain.end(),
                                [&](const OracleEntry &entry) {
                                    return entry.addr == addr;
                                });
        };

        for (int step = 0; step < 3000; ++step) {
            const std::uint64_t hash = kHashes[pick(4)];
            const LineAddr addr = pick(kSlots);
            const auto live = slot_hash.find(addr);
            switch (pick(7)) {
              case 0: // insert
              case 1: // restore
                if (live != slot_hash.end())
                    break;
                if (step % 2 == 0) {
                    store.insert(hash, addr);
                    oracle[hash].push_back({ addr, 1, false, {} });
                } else {
                    const std::uint64_t count = 1 + pick(300);
                    store.restore(hash, addr, count);
                    oracle[hash].push_back(
                        { addr,
                          static_cast<std::uint8_t>(
                              std::min<std::uint64_t>(count, 255)),
                          false, {} });
                }
                slot_hash[addr] = hash;
                break;
              case 2: // addReference
                if (live != slot_hash.end()) {
                    auto it = find(live->second, addr);
                    const bool saturated = it->reference == 255;
                    EXPECT_EQ(store.addReference(live->second, addr),
                              !saturated);
                    if (saturated) {
                        ++refusals;
                        ++saturated_refusals;
                    } else {
                        ++it->reference;
                    }
                }
                break;
              case 3: // dropReference
              case 4:
                if (live != slot_hash.end()) {
                    const std::uint64_t owner = live->second;
                    std::vector<OracleEntry> &chain = oracle[owner];
                    auto it = find(owner, addr);
                    bool removed = false;
                    if (it->reference != 255 && --it->reference == 0) {
                        if (it != chain.begin() && it + 1 != chain.end())
                            ++middle_removals;
                        chain.erase(it);
                        if (chain.empty())
                            oracle.erase(owner);
                        slot_hash.erase(live);
                        removed = true;
                    }
                    EXPECT_EQ(store.dropReference(owner, addr), removed);
                }
                break;
              case 5: // setStrongFp
                if (live != slot_hash.end()) {
                    const StrongFp fp{ rng(), rng() };
                    store.setStrongFp(live->second, addr, fp);
                    auto it = find(live->second, addr);
                    it->fpValid = true;
                    it->fp = fp;
                }
                break;
              case 6: { // reference / strongFpOf, hits and misses
                const bool here =
                    live != slot_hash.end() && live->second == hash;
                const auto it = here ? find(hash, addr)
                                     : std::vector<OracleEntry>::iterator{};
                EXPECT_EQ(store.reference(hash, addr),
                          here ? it->reference : 0);
                const StrongFp *fp = store.strongFpOf(hash, addr);
                ASSERT_EQ(fp != nullptr, here && it->fpValid);
                if (fp) {
                    EXPECT_EQ(*fp, it->fp);
                }
                break;
              }
            }
            for (const auto &[h, chain] : oracle)
                max_chain = std::max(max_chain, chain.size());
            if (step % 100 == 0)
                expectMatchesOracle(store, oracle, refusals);
        }
        expectMatchesOracle(store, oracle, refusals);
    }
    EXPECT_GE(max_chain, 5u);
    EXPECT_GT(middle_removals, 0u);
    EXPECT_GT(saturated_refusals, 0u);
}

TEST(HashStoreDeathTest, DoubleInsertPanics)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(7, 7);
    EXPECT_DEATH(store.insert(7, 7), "duplicate insert");
}

TEST(HashStoreDeathTest, SlotInTwoChainsPanics)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(7, 7);
    EXPECT_DEATH(store.insert(8, 7), "duplicate insert");
}

TEST(HashStoreDeathTest, RestoreWithoutReferencesPanics)
{
    SlotTable slots;
    HashStore store(slots);
    EXPECT_DEATH(store.restore(3, 3, 0), "no references");
}

TEST(HashStoreDeathTest, AddReferenceToAbsentPanics)
{
    SlotTable slots;
    HashStore store(slots);
    EXPECT_DEATH(store.addReference(9, 9), "absent");
}

TEST(HashStoreDeathTest, DropReferenceFromAbsentPanics)
{
    SlotTable slots;
    HashStore store(slots);
    store.insert(5, 1);
    EXPECT_DEATH(store.dropReference(5, 99), "absent");
}

} // namespace
} // namespace dewrite
