/**
 * @file
 * SlotTable tests: the address-mapping and inverted-hash views, the
 * counter-colocation home of Section III-C, and the SlotRecord layout.
 */

#include "dedup/slot_table.hh"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "dedup/hash_store.hh"

namespace dewrite {
namespace {

TEST(AddressMappingTest, DefaultEntriesAreNullWithZeroCounter)
{
    SlotTable table;
    EXPECT_FALSE(table.isRemapped(123));
    EXPECT_EQ(table.find(123), nullptr);
    EXPECT_EQ(*SlotRecord{}.counterHome(), 0u);
}

TEST(AddressMappingTest, RemapAndClear)
{
    SlotTable table;
    table.remap(5, 99);
    EXPECT_TRUE(table.isRemapped(5));
    EXPECT_EQ(table.realAddr(5), 99u);

    table.clearRemap(5);
    EXPECT_FALSE(table.isRemapped(5));
    // Null entries come back zeroed and home the counter again.
    EXPECT_EQ(table.find(5)->counterHome(), &table.find(5)->mapValue);
    EXPECT_EQ(*table.find(5)->counterHome(), 0u);
}

TEST(AddressMappingTest, RemapOverwriteKeepsOneEntry)
{
    SlotTable table;
    table.remap(1, 10);
    table.remap(1, 20);
    EXPECT_EQ(table.realAddr(1), 20u);
    std::size_t remapped = 0;
    table.forEachRemapped([&](LineAddr, LineAddr) { ++remapped; });
    EXPECT_EQ(remapped, 1u);
}

TEST(AddressMappingTest, CounterStorageInNullEntry)
{
    SlotTable table;
    *table.ref(8).counterHome() = 41;
    EXPECT_EQ(table.find(8)->mapValue, 41u);
    EXPECT_EQ(*table.find(8)->counterHome(), 41u);
}

TEST(AddressMappingTest, RemappedEntryHomesNoCounter)
{
    // Remapping takes the mapping entry; the counter moves to the
    // (null) inverted-hash entry, and with both taken it has no home.
    SlotTable table;
    table.remap(2, 3);
    EXPECT_EQ(table.find(2)->counterHome(), &table.find(2)->invValue);
    table.setHash(2, 0x22);
    EXPECT_EQ(table.find(2)->counterHome(), nullptr);
}

TEST(AddressMappingDeathTest, RealAddrOfNullEntryPanics)
{
    SlotTable table;
    EXPECT_DEATH(table.realAddr(4), "non-remapped");
}

TEST(AddressMappingTest, ForEachRemappedIsAscending)
{
    SlotTable table;
    table.remap(70000, 1);
    table.remap(9, 2);
    table.setHash(5, 0x55); // A data slot is not a remapping.
    table.remap(300, 3);
    std::vector<std::pair<LineAddr, LineAddr>> seen;
    table.forEachRemapped([&](LineAddr init_addr, LineAddr real_addr) {
        seen.emplace_back(init_addr, real_addr);
    });
    EXPECT_EQ(seen, (std::vector<std::pair<LineAddr, LineAddr>>{
                        { 9, 2 }, { 300, 3 }, { 70000, 1 } }));
}

TEST(InvertedHashTest, DefaultSlotsHoldNoData)
{
    SlotTable table;
    EXPECT_FALSE(table.holdsData(55));
    EXPECT_EQ(table.dataSlots(), 0u);
}

TEST(InvertedHashTest, SetAndClearHash)
{
    SlotTable table;
    table.setHash(9, 0xdeadbeef);
    EXPECT_TRUE(table.holdsData(9));
    EXPECT_EQ(table.hash(9), 0xdeadbeefu);
    EXPECT_EQ(table.dataSlots(), 1u);

    table.clearHash(9);
    EXPECT_FALSE(table.holdsData(9));
    EXPECT_EQ(table.dataSlots(), 0u);
    EXPECT_EQ(table.find(9)->invValue, 0u);
}

TEST(InvertedHashTest, HashOverwriteKeepsCount)
{
    SlotTable table;
    table.setHash(1, 0x11);
    table.setHash(1, 0x22);
    EXPECT_EQ(table.hash(1), 0x22u);
    EXPECT_EQ(table.dataSlots(), 1u);
}

TEST(InvertedHashTest, CounterStorageInNullEntry)
{
    SlotTable table;
    table.remap(3, 7);
    *table.ref(3).counterHome() = 1234;
    EXPECT_EQ(table.find(3)->invValue, 1234u);
    EXPECT_FALSE(table.holdsData(3));
}

TEST(InvertedHashTest, ForEachDataSlotIsAscending)
{
    SlotTable table;
    table.setHash(80000, 0x8);
    table.setHash(4, 0x4);
    table.remap(6, 1); // A remapping is not a data slot.
    std::vector<std::pair<LineAddr, std::uint64_t>> seen;
    table.forEachDataSlot([&](LineAddr slot, std::uint64_t hash) {
        seen.emplace_back(slot, hash);
    });
    EXPECT_EQ(seen, (std::vector<std::pair<LineAddr, std::uint64_t>>{
                        { 4, 0x4 }, { 80000, 0x8 } }));
}

TEST(InvertedHashDeathTest, HashOfEmptySlotPanics)
{
    SlotTable table;
    EXPECT_DEATH(table.hash(7), "empty slot");
}

TEST(SlotTableTest, WrittenFlagIsPerLine)
{
    SlotTable table;
    EXPECT_FALSE(table.written(12));
    table.markWritten(12);
    EXPECT_TRUE(table.written(12));
    EXPECT_FALSE(table.written(13));
    EXPECT_FALSE(table.isRemapped(12));
    EXPECT_FALSE(table.holdsData(12));
}

TEST(SlotTableTest, RecordIsHalfACacheLineAndZeroMeansUntouched)
{
    static_assert(sizeof(SlotRecord) == 32);
    static_assert(alignof(SlotRecord) == 32);
    static_assert(zeroBytesAreValueInit<SlotRecord>);

    // All-zero bytes decode as the untouched record.
    alignas(SlotRecord) unsigned char raw[sizeof(SlotRecord)];
    std::memset(raw, 0, sizeof(raw));
    SlotRecord rec;
    std::memcpy(&rec, raw, sizeof(rec));
    EXPECT_EQ(std::memcmp(&rec, raw, sizeof(rec)), 0);
    EXPECT_EQ(rec.flags, 0u);
    for (const SlotRecord::Flag flag :
         { SlotRecord::kRemapped, SlotRecord::kHoldsData,
           SlotRecord::kWritten, SlotRecord::kStrongValid,
           SlotRecord::kHasOverflow, SlotRecord::kHasMajor })
        EXPECT_FALSE(rec.has(flag));
    EXPECT_EQ(rec.counterHome(), &rec.mapValue);
    EXPECT_EQ(*rec.counterHome(), 0u);
    EXPECT_EQ(rec.reference, 0u); // No hash-store record.
    EXPECT_EQ(rec.older, 0u);     // Links nowhere.

    // And SlotRecord{} is exactly those bytes.
    const SlotRecord value{};
    EXPECT_EQ(std::memcmp(&value, raw, sizeof(value)), 0);

    // A table reads an untouched record on a fresh page the same way.
    SlotTable table;
    table.markWritten(1);
    ASSERT_NE(table.find(2), nullptr);
    EXPECT_EQ(std::memcmp(table.find(2), raw, sizeof(SlotRecord)), 0);
}

TEST(SlotTableTest, FlagsAreIndependentBits)
{
    SlotRecord rec{};
    rec.set(SlotRecord::kWritten);
    rec.set(SlotRecord::kHasMajor);
    EXPECT_TRUE(rec.has(SlotRecord::kWritten));
    EXPECT_TRUE(rec.has(SlotRecord::kHasMajor));
    EXPECT_FALSE(rec.has(SlotRecord::kHasOverflow));
    rec.clear(SlotRecord::kWritten);
    EXPECT_FALSE(rec.has(SlotRecord::kWritten));
    EXPECT_TRUE(rec.has(SlotRecord::kHasMajor));
}

TEST(SlotTableTest, HashStoreClearWipesOnlyItsOwnFields)
{
    // The hash store keeps its records in the slot's SlotRecord; its
    // clear() (the crash damage of an unprotected cache) must leave the
    // mapping, inverted-hash and written state untouched.
    SlotTable table;
    HashStore store(table);
    table.setHash(4, 0x44);
    table.remap(4, 9);
    table.markWritten(4);
    table.ref(4).set(SlotRecord::kHasMajor);
    store.insert(0x44, 4);
    store.insert(0x44, 5);
    store.setStrongFp(0x44, 4, StrongFp{ 1, 2 });
    EXPECT_TRUE(table.find(4)->has(SlotRecord::kStrongValid));

    store.clear();
    const SlotRecord &rec = *table.find(4);
    EXPECT_EQ(rec.invValue, 0x44u);
    EXPECT_EQ(rec.mapValue, 9u);
    EXPECT_TRUE(rec.has(SlotRecord::kHoldsData));
    EXPECT_TRUE(rec.has(SlotRecord::kRemapped));
    EXPECT_TRUE(rec.has(SlotRecord::kWritten));
    EXPECT_TRUE(rec.has(SlotRecord::kHasMajor));
    for (const LineAddr slot : { 4, 5 }) {
        const SlotRecord &wiped = *table.find(slot);
        EXPECT_EQ(wiped.storeHash, 0u);
        EXPECT_EQ(wiped.older, 0u);
        EXPECT_EQ(wiped.reference, 0u);
        EXPECT_FALSE(wiped.has(SlotRecord::kStrongValid));
    }
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(store.lookup(0x44).empty());
}

} // namespace
} // namespace dewrite
