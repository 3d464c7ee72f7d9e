/**
 * @file
 * Huge-page-friendly host allocation.
 *
 * The big per-line stores (PagedArray, DenseLineStore, FlatMap) are
 * probed at effectively random addresses across hundreds of megabytes,
 * so with 4 KiB pages the host dTLB (a few MiB of reach) misses on
 * nearly every probe. Backing those stores with 2 MiB-aligned regions
 * advised as MADV_HUGEPAGE lets the kernel map transparent huge pages
 * and multiplies TLB reach by 512. This is purely a host-side
 * optimization: simulated behaviour is untouched.
 *
 * hugeAlloc() rounds the request up to a multiple of 2 MiB and returns
 * 2 MiB-aligned memory (uninitialized); below kHugeAllocMinBytes it
 * degrades to plain operator new since sub-huge-page allocations gain
 * nothing. On Linux the blocks are mapped with mmap and hugeFree()
 * unmaps them, so a torn-down System returns its stores to the OS
 * instead of leaving them resident in the malloc heap. madvise() is
 * best-effort and compiled only on Linux.
 */

#ifndef DEWRITE_COMMON_HUGE_PAGES_HH
#define DEWRITE_COMMON_HUGE_PAGES_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dewrite {

/**
 * Test hook: while true, the MADV_HUGEPAGE advise step reports failure
 * without calling the kernel, so tests can pin the fallback path —
 * the allocation must stay fully usable on 4 KiB pages — on any host,
 * including ones where madvise never fails. Atomic because allocations
 * happen from pool workers.
 */
inline std::atomic<bool> &
hugeAdviseForceFailure()
{
    // dewrite-owned: sync(atomic) test hook; plain atomic flag
    static std::atomic<bool> force{ false };
    return force;
}

/**
 * Allocations whose huge-page advise failed (hook-forced or real).
 * Purely diagnostic: a nonzero count means degraded TLB reach, never
 * degraded correctness.
 */
inline std::atomic<std::uint64_t> &
hugeAdviseFailures()
{
    // dewrite-owned: sync(atomic) diagnostic counter only;
    // never read back into simulated state
    static std::atomic<std::uint64_t> failures{ 0 };
    return failures;
}

/** Transparent-huge-page size on the only platforms we run on. */
inline constexpr std::size_t kHugePageBytes = 2u << 20;

/** Requests at least this large take the huge-page path. */
inline constexpr std::size_t kHugeAllocMinBytes = 1u << 20;

/** True iff an allocation of @p bytes uses the huge-page path. */
constexpr bool
hugeAllocEligible(std::size_t bytes)
{
    return bytes >= kHugeAllocMinBytes;
}

/** @p bytes rounded up to whole huge pages. */
constexpr std::size_t
hugeRoundUp(std::size_t bytes)
{
    return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

/**
 * Uninitialized storage for @p bytes. Eligible sizes come back 2 MiB
 * aligned, rounded up to whole huge pages, and advised MADV_HUGEPAGE.
 */
inline void *
hugeAlloc(std::size_t bytes)
{
    if (!hugeAllocEligible(bytes))
        // dewrite-analyze: allow(hot-path-purity) demand allocation of one storage page;
        // amortized over kPageEntries lines, then touched never
        return ::operator new(bytes);
    const std::size_t rounded = hugeRoundUp(bytes);
#if defined(__linux__)
    // Over-map by one huge page, then unmap the misaligned head and the
    // spare tail so the block starts on a 2 MiB boundary.
    void *raw = mmap(nullptr, rounded + kHugePageBytes,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned =
        (base + kHugePageBytes - 1) & ~std::uintptr_t{ kHugePageBytes - 1 };
    const std::size_t head = aligned - base;
    if (head != 0)
        munmap(raw, head);
    if (head != kHugePageBytes)
        munmap(reinterpret_cast<void *>(aligned + rounded),
               kHugePageBytes - head);
    void *mem = reinterpret_cast<void *>(aligned);
#else
    void *mem = std::aligned_alloc(kHugePageBytes, rounded);
    if (!mem)
        throw std::bad_alloc();
#endif
    // Best-effort: a kernel without THP simply ignores the hint, and
    // a failed advise leaves the region valid on base pages.
    bool advised = true;
    if (hugeAdviseForceFailure().load(std::memory_order_relaxed)) {
        advised = false;
    } else {
#if defined(__linux__)
        advised = madvise(mem, rounded, MADV_HUGEPAGE) == 0;
#endif
    }
    if (!advised)
        hugeAdviseFailures().fetch_add(1, std::memory_order_relaxed);
    return mem;
}

/** Releases memory from hugeAlloc(); @p bytes must match the request. */
inline void
hugeFree(void *mem, std::size_t bytes)
{
    if (!hugeAllocEligible(bytes)) {
        ::operator delete(mem);
        return;
    }
#if defined(__linux__)
    munmap(mem, hugeRoundUp(bytes));
#else
    std::free(mem);
#endif
}

/** Deleter for objects placement-constructed in hugeAlloc() storage. */
template <typename T>
struct HugeDeleter
{
    void
    operator()(T *object) const
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "huge pages hold flat POD state only");
        hugeFree(object, sizeof(T));
    }
};

template <typename T>
using HugeUniquePtr = std::unique_ptr<T, HugeDeleter<T>>;

/**
 * True when a value-initialized T is all-zero bytes: arithmetic types,
 * std::arrays of such types, and classes that opt in by declaring
 * `static constexpr bool kZeroBytesAreValueInit = true;`. An opted-in
 * class must be trivially copyable and destructible, and every member
 * of its T{} must be zero.
 */
template <typename T>
inline constexpr bool zeroBytesAreValueInit = [] {
    if constexpr (std::is_arithmetic_v<T>)
        return true;
    else if constexpr (requires { T::kZeroBytesAreValueInit; })
        return T::kZeroBytesAreValueInit;
    else
        return false;
}();

template <typename T, std::size_t N>
inline constexpr bool zeroBytesAreValueInit<std::array<T, N>> =
    zeroBytesAreValueInit<T>;

/** True iff hugeAlloc(@p bytes) returns kernel-zeroed mmap memory. */
constexpr bool
hugeAllocZeroes(std::size_t bytes)
{
#if defined(__linux__)
    return hugeAllocEligible(bytes);
#else
    static_cast<void>(bytes);
    return false; // aligned_alloc memory is uninitialized
#endif
}

/**
 * Value-initialized T in huge-page-backed storage. When the block
 * comes fresh from mmap, the kernel has already zeroed it, so a T
 * whose value-initialized state is all-zero bytes is not filled again:
 * the pages are faulted in on first touch instead of all at once.
 */
template <typename T>
HugeUniquePtr<T>
makeHuge()
{
    void *mem = hugeAlloc(sizeof(T));
    if constexpr (zeroBytesAreValueInit<T> && hugeAllocZeroes(sizeof(T))) {
        static_assert(std::is_trivially_copyable_v<T>,
                      "zero-byte storage is reused as T only for "
                      "implicit-lifetime types");
        return HugeUniquePtr<T>(std::launder(static_cast<T *>(mem)));
    } else {
        // dewrite-analyze: allow(hot-path-purity) demand allocation of one storage page
        return HugeUniquePtr<T>(new (mem) T{});
    }
}

/**
 * Minimal std::vector allocator that routes large buffers through
 * hugeAlloc(). Stateless; small buffers use the global heap.
 */
template <typename T>
struct HugeAwareAllocator
{
    using value_type = T;

    HugeAwareAllocator() = default;

    template <typename U>
    HugeAwareAllocator(const HugeAwareAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t count)
    {
        return static_cast<T *>(hugeAlloc(count * sizeof(T)));
    }

    void
    deallocate(T *mem, std::size_t count)
    {
        hugeFree(mem, count * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const HugeAwareAllocator<U> &) const
    {
        return true;
    }

    template <typename U>
    bool
    operator!=(const HugeAwareAllocator<U> &) const
    {
        return false;
    }
};

} // namespace dewrite

#endif // DEWRITE_COMMON_HUGE_PAGES_HH
