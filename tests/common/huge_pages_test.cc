/**
 * @file
 * Tests for the huge-page-friendly allocation helpers.
 */

#include "common/huge_pages.hh"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/dense_line_store.hh"
#include "common/line.hh"
#include "common/paged_array.hh"
#include "crypto/strong_fingerprint.hh"
#include "dedup/slot_table.hh"

namespace dewrite {
namespace {

TEST(HugePages, SmallAllocationsUsePlainHeap)
{
    EXPECT_FALSE(hugeAllocEligible(1));
    EXPECT_FALSE(hugeAllocEligible(kHugeAllocMinBytes - 1));
    void *mem = hugeAlloc(4096);
    ASSERT_NE(mem, nullptr);
    std::memset(mem, 0xab, 4096);
    hugeFree(mem, 4096);
}

TEST(HugePages, LargeAllocationsAreHugePageAligned)
{
    EXPECT_TRUE(hugeAllocEligible(kHugeAllocMinBytes));
    const std::size_t bytes = 3u << 20; // spans two huge pages
    void *mem = hugeAlloc(bytes);
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mem) % kHugePageBytes, 0u);
    // The whole rounded region must be writable.
    std::memset(mem, 0xcd, bytes);
    hugeFree(mem, bytes);
}

#if defined(__linux__)
TEST(HugePages, FreedLargeBlocksLeaveTheAddressSpace)
{
    // Large blocks are mapped per allocation and unmapped on free, so
    // a torn-down store cannot stay resident in the malloc heap.
    // mincore() fails with ENOMEM on a range that is no longer mapped.
    const std::size_t bytes = 3u << 20;
    void *mem = hugeAlloc(bytes);
    std::memset(mem, 0x5a, bytes);
    unsigned char resident[(4u << 20) / 4096];
    EXPECT_EQ(mincore(mem, hugeRoundUp(bytes), resident), 0);
    hugeFree(mem, bytes);
    errno = 0;
    EXPECT_EQ(mincore(mem, hugeRoundUp(bytes), resident), -1);
    EXPECT_EQ(errno, ENOMEM);
}
#endif

TEST(HugePages, MakeHugeValueInitializes)
{
    struct Block
    {
        std::uint64_t words[512];
    };
    auto block = makeHuge<Block>();
    for (std::uint64_t word : block->words)
        EXPECT_EQ(word, 0u);
}

TEST(HugePages, AwareAllocatorRoundTripsThroughVector)
{
    std::vector<std::uint64_t, HugeAwareAllocator<std::uint64_t>> vec;
    // Grow past the huge-allocation threshold to exercise both paths.
    const std::size_t count = (2u << 20) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < count; ++i)
        vec.push_back(i);
    for (std::size_t i = 0; i < count; i += 4097)
        EXPECT_EQ(vec[i], i);
}

TEST(HugePages, ForcedAdviseFailureFallsBackToBasePages)
{
    // The force hook makes the MADV_HUGEPAGE step fail on any host;
    // the allocation must come back aligned and fully usable anyway —
    // a failed advise degrades only TLB reach, never correctness.
    const std::uint64_t before = hugeAdviseFailures().load();
    hugeAdviseForceFailure().store(true);
    const std::size_t bytes = 3u << 20;
    void *mem = hugeAlloc(bytes);
    hugeAdviseForceFailure().store(false);

    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mem) % kHugePageBytes, 0u);
    std::memset(mem, 0xef, bytes);
    hugeFree(mem, bytes);
    EXPECT_EQ(hugeAdviseFailures().load(), before + 1);
}

TEST(HugePages, IneligibleAllocationsNeverCountAdviseFailures)
{
    // The plain-heap path has no advise step, so the hook must not
    // make small allocations look degraded.
    const std::uint64_t before = hugeAdviseFailures().load();
    hugeAdviseForceFailure().store(true);
    void *mem = hugeAlloc(4096);
    hugeAdviseForceFailure().store(false);
    ASSERT_NE(mem, nullptr);
    hugeFree(mem, 4096);
    EXPECT_EQ(hugeAdviseFailures().load(), before);
}

TEST(HugePages, DefaultPageEntriesTargetOneHugePage)
{
    EXPECT_EQ(pagedArrayDefaultEntries(1), kHugePageBytes);
    EXPECT_EQ(pagedArrayDefaultEntries(8), kHugePageBytes / 8);
    EXPECT_EQ(pagedArrayDefaultEntries(256), kHugePageBytes / 256);
    // Odd sizes round down to a power of two; huge sizes clamp up.
    EXPECT_EQ(pagedArrayDefaultEntries(24),
              std::bit_floor(kHugePageBytes / 24));
    EXPECT_EQ(pagedArrayDefaultEntries(kHugePageBytes), 4096u);
}

/**
 * Allocates a PagedArray-shaped page of T the way PagedArray::ref does
 * and checks that every entry reads as T{}, byte for byte.
 */
template <typename T, std::size_t kEntries = pagedArrayDefaultEntries(
                          sizeof(T))>
void
expectFreshPageReadsValueInit()
{
    auto page = makeHuge<std::array<T, kEntries>>();
    const T value{};
    for (std::size_t i = 0; i < kEntries; ++i) {
        ASSERT_EQ(std::memcmp(&(*page)[i], &value, sizeof(T)), 0)
            << "entry " << i;
    }
}

/** Value-initializes to nonzero bytes, so it must keep the fill. */
struct NonZeroDefault
{
    std::uint64_t word = 0x5a5a5a5a5a5a5a5aull;
};

void
expectEveryEntryTypeReadsValueInit()
{
    // Zero-byte types on the mmap path (no fill)...
    static_assert(zeroBytesAreValueInit<std::uint8_t> &&
                  zeroBytesAreValueInit<std::uint64_t> &&
                  zeroBytesAreValueInit<StrongFp> &&
                  zeroBytesAreValueInit<SlotRecord> &&
                  zeroBytesAreValueInit<Line>);
    static_assert(!zeroBytesAreValueInit<NonZeroDefault>);
    expectFreshPageReadsValueInit<std::uint8_t>();
    expectFreshPageReadsValueInit<std::uint64_t>();
    expectFreshPageReadsValueInit<StrongFp>();
    expectFreshPageReadsValueInit<SlotRecord>();
    expectFreshPageReadsValueInit<Line, DenseLineStore::kPageLines>();
    // ...a type that must still be filled...
    expectFreshPageReadsValueInit<NonZeroDefault>();
    // ...and pages small enough for the plain-heap path, which is
    // never zeroed by the kernel and keeps its fill.
    static_assert(!hugeAllocZeroes(sizeof(std::array<SlotRecord, 64>)));
    expectFreshPageReadsValueInit<SlotRecord, 64>();
    expectFreshPageReadsValueInit<Line, 64>();

    // DenseAddrMap's entry type is private: its fresh page must read as
    // absent everywhere but the touched index.
    DenseAddrMap<std::uint64_t> map;
    map[3] = 9;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        if (i != 3) {
            EXPECT_EQ(map.find(i), nullptr) << i;
        }
    }
    EXPECT_EQ(*map.find(3), 9u);
}

TEST(HugePages, FreshPagesOfEveryEntryTypeReadAsValueInit)
{
    expectEveryEntryTypeReadsValueInit();
}

TEST(HugePages, FreshPagesReadAsValueInitWhenAdviseFails)
{
    const std::uint64_t before = hugeAdviseFailures().load();
    hugeAdviseForceFailure().store(true);
    expectEveryEntryTypeReadsValueInit();
    hugeAdviseForceFailure().store(false);
    EXPECT_GT(hugeAdviseFailures().load(), before);
}

} // namespace
} // namespace dewrite
