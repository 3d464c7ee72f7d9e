/**
 * @file
 * PagedArray / DenseAddrSet / DenseLineStore tests.
 *
 * These are the direct-indexed containers of the flat hot-path layer;
 * the suite pins lazy page allocation, default-value reads, the
 * overflow fallback above the direct range, and the ascending
 * iteration contract of DESIGN.md §5.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dense_line_store.hh"
#include "common/paged_array.hh"
#include "common/rng.hh"

namespace dewrite {
namespace {

TEST(PagedArray, FindOnUntouchedPageIsNull)
{
    PagedArray<std::uint64_t> array;
    EXPECT_EQ(array.find(0), nullptr);
    EXPECT_EQ(array.find(123456), nullptr);
    EXPECT_EQ(array.get(123456), 0u);
}

TEST(PagedArray, RefAllocatesAndPersists)
{
    // Explicit page size: the assertions below reason about which
    // indices share a page (the default tracks the huge-page size).
    PagedArray<std::uint64_t, 4096> array;
    array.ref(5000) = 42;
    ASSERT_NE(array.find(5000), nullptr);
    EXPECT_EQ(*array.find(5000), 42u);
    EXPECT_EQ(array.get(5000), 42u);

    // Same page, different slot: allocated but default.
    ASSERT_NE(array.find(5001), nullptr);
    EXPECT_EQ(*array.find(5001), 0u);

    // Different page: still untouched.
    EXPECT_EQ(array.find(50000), nullptr);
}

TEST(PagedArray, ReserveSizesDirectoryOnly)
{
    PagedArray<std::uint64_t> array;
    array.reserve(1 << 20);
    // Reserving must not allocate any page: finds still miss.
    EXPECT_EQ(array.find(0), nullptr);
    EXPECT_EQ(array.find((1 << 20) - 1), nullptr);
}

TEST(PagedArray, OverflowAboveDirectRange)
{
    PagedArray<std::uint64_t> array;
    const std::uint64_t huge =
        PagedArray<std::uint64_t>::kMaxDirectEntries + 77;
    EXPECT_EQ(array.find(huge), nullptr);
    array.ref(huge) = 9;
    ASSERT_NE(array.find(huge), nullptr);
    EXPECT_EQ(*array.find(huge), 9u);
    EXPECT_EQ(array.overflowSize(), 1u);
}

TEST(PagedArray, ForEachAscendingIncludingOverflow)
{
    PagedArray<std::uint64_t> array;
    const std::uint64_t huge =
        PagedArray<std::uint64_t>::kMaxDirectEntries + 1;
    array.ref(9000) = 1;
    array.ref(10) = 2;
    array.ref(huge) = 3;

    std::vector<std::uint64_t> seen;
    array.forEach([&](std::uint64_t index, const std::uint64_t &value) {
        if (value != 0)
            seen.push_back(index);
    });
    const std::vector<std::uint64_t> expect = { 10, 9000, huge };
    EXPECT_EQ(seen, expect);
}

TEST(DenseAddrSet, InsertContainsErase)
{
    DenseAddrSet set;
    EXPECT_FALSE(set.contains(3));
    EXPECT_TRUE(set.insert(3));
    EXPECT_FALSE(set.insert(3));
    EXPECT_TRUE(set.contains(3));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.erase(3));
    EXPECT_FALSE(set.erase(3));
    EXPECT_FALSE(set.contains(3));
    EXPECT_EQ(set.size(), 0u);
}

TEST(DenseAddrSet, SortedIterationSkipsErased)
{
    DenseAddrSet set;
    for (std::uint64_t addr : { 500ul, 2ul, 9000ul, 77ul })
        set.insert(addr);
    set.erase(77);
    std::vector<std::uint64_t> seen;
    set.forEachSorted([&](std::uint64_t addr) { seen.push_back(addr); });
    const std::vector<std::uint64_t> expect = { 2, 500, 9000 };
    EXPECT_EQ(seen, expect);
}

TEST(DenseAddrMap, FindInsertEraseCountsPresence)
{
    DenseAddrMap<std::uint64_t> map;
    EXPECT_EQ(map.find(4), nullptr);
    map[4] = 0; // A stored zero is still present.
    ASSERT_NE(map.find(4), nullptr);
    EXPECT_EQ(*map.find(4), 0u);
    ++map[4];
    EXPECT_EQ(*map.find(4), 1u);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_TRUE(map.erase(4));
    EXPECT_FALSE(map.erase(4));
    EXPECT_EQ(map.find(4), nullptr);
    EXPECT_EQ(map.size(), 0u);
    // Re-inserting starts from a value-initialized entry.
    EXPECT_EQ(map[4], 0u);
}

TEST(DenseAddrMap, SortedIterationIncludesOverflow)
{
    DenseAddrMap<std::uint64_t> map;
    const std::uint64_t huge =
        PagedArray<std::uint64_t>::kMaxDirectEntries + 5;
    map[huge] = 1;
    map[9000] = 2;
    map[10] = 3;
    map[77] = 4;
    map.erase(77);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    map.forEachSorted([&](std::uint64_t addr, std::uint64_t value) {
        seen.emplace_back(addr, value);
    });
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> expect = {
        { 10, 3 }, { 9000, 2 }, { huge, 1 }
    };
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(map.size(), 3u);
}

Line
stampedLine(std::uint64_t stamp)
{
    Line line;
    line.setWord64(0, stamp);
    return line;
}

TEST(DenseLineStore, UnwrittenReadsAsAbsent)
{
    DenseLineStore store;
    EXPECT_EQ(store.find(0), nullptr);
    EXPECT_FALSE(store.isWritten(42));
    EXPECT_EQ(store.writtenCount(), 0u);
}

TEST(DenseLineStore, WriteReadRoundTrip)
{
    DenseLineStore store;
    store.refForWrite(300) = stampedLine(7);
    ASSERT_NE(store.find(300), nullptr);
    EXPECT_EQ(store.find(300)->word64(0), 7u);
    EXPECT_TRUE(store.isWritten(300));
    EXPECT_EQ(store.writtenCount(), 1u);

    // Same page, neighbouring address: page exists, line unwritten.
    EXPECT_EQ(store.find(301), nullptr);
    EXPECT_FALSE(store.isWritten(301));

    // Rewrites don't bump the distinct-address count.
    store.refForWrite(300) = stampedLine(8);
    EXPECT_EQ(store.writtenCount(), 1u);
    EXPECT_EQ(store.find(300)->word64(0), 8u);
}

TEST(DenseLineStore, ZeroLineIsStillWritten)
{
    // A written all-zero line must stay distinguishable from an
    // unwritten one — the semantic the written-bitmap exists for.
    DenseLineStore store;
    store.refForWrite(10) = Line();
    ASSERT_NE(store.find(10), nullptr);
    EXPECT_TRUE(store.find(10)->isZero());
    EXPECT_TRUE(store.isWritten(10));
}

TEST(DenseLineStore, OverflowAboveDirectRange)
{
    DenseLineStore store;
    const LineAddr huge = DenseLineStore::kMaxDirectLines + 5;
    store.refForWrite(huge) = stampedLine(11);
    ASSERT_NE(store.find(huge), nullptr);
    EXPECT_EQ(store.find(huge)->word64(0), 11u);
    EXPECT_EQ(store.overflowSize(), 1u);
    EXPECT_EQ(store.writtenCount(), 1u);
}

TEST(DenseLineStore, ForEachWrittenAscending)
{
    DenseLineStore store;
    // Scattered across pages and bitmap words, inserted out of order.
    const std::vector<LineAddr> addrs = { 700, 3, 64, 65, 255, 256, 9001 };
    for (std::size_t i = 0; i < addrs.size(); ++i)
        store.refForWrite(addrs[i]) = stampedLine(i + 1);

    std::vector<LineAddr> seen;
    store.forEachWritten([&](LineAddr addr, const Line &line) {
        seen.push_back(addr);
        EXPECT_FALSE(line.isZero());
    });
    std::vector<LineAddr> expect = addrs;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(seen, expect);
}

TEST(DenseLineStore, PropertyAgainstMapOracle)
{
    DenseLineStore store;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    Rng rng(0xd15ea5e);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t addr = rng.nextBelow(4096);
        if (rng.chance(0.6)) {
            const std::uint64_t stamp = rng.next64();
            store.refForWrite(addr) = stampedLine(stamp);
            oracle[addr] = stamp;
        } else {
            const Line *line = store.find(addr);
            const auto it = oracle.find(addr);
            if (it == oracle.end()) {
                EXPECT_EQ(line, nullptr);
            } else {
                ASSERT_NE(line, nullptr);
                EXPECT_EQ(line->word64(0), it->second);
            }
        }
    }
    EXPECT_EQ(store.writtenCount(), oracle.size());
}

} // namespace
} // namespace dewrite
