/**
 * @file
 * Tests for the huge-page-friendly allocation helpers.
 */

#include "common/huge_pages.hh"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/paged_array.hh"

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

} // namespace
} // namespace dewrite
