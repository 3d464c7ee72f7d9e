/**
 * @file
 * Pins the steady-state allocation budget of the push-mode core loop:
 * once one round of a workload has warmed every table, feeding the
 * next round through CoreModel::feed/finish must make no heap
 * allocation at all, under the secure baseline and under DeWrite with
 * both the confirm-read and weak-strong detection policies.
 *
 * A global operator new that counts while armed sees every heap
 * allocation of the process, so this file is its own executable: no
 * other test shares the replaced allocator.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "cpu/core_model.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/app_catalog.hh"
#include "trace/collision_trace.hh"
#include "trace/trace.hh"
#include "trace/trace_gen.hh"

namespace {

std::atomic<bool> counting{ false };
std::atomic<std::uint64_t> allocations{ 0 };

void *
countedAlloc(std::size_t bytes, std::size_t align)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (bytes == 0)
        bytes = 1;
    void *mem = align > alignof(std::max_align_t)
        ? std::aligned_alloc(align, (bytes + align - 1) / align * align)
        : std::malloc(bytes);
    if (!mem)
        throw std::bad_alloc();
    return mem;
}

} // namespace

void *
operator new(std::size_t bytes)
{
    return countedAlloc(bytes, 0);
}

void *
operator new[](std::size_t bytes)
{
    return countedAlloc(bytes, 0);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    return countedAlloc(bytes, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return countedAlloc(bytes, static_cast<std::size_t>(align));
}

void operator delete(void *mem) noexcept { std::free(mem); }
void operator delete[](void *mem) noexcept { std::free(mem); }
void operator delete(void *mem, std::size_t) noexcept { std::free(mem); }
void operator delete[](void *mem, std::size_t) noexcept { std::free(mem); }
void operator delete(void *mem, std::align_val_t) noexcept { std::free(mem); }
void
operator delete[](void *mem, std::align_val_t) noexcept
{
    std::free(mem);
}
void
operator delete(void *mem, std::size_t, std::align_val_t) noexcept
{
    std::free(mem);
}
void
operator delete[](void *mem, std::size_t, std::align_val_t) noexcept
{
    std::free(mem);
}

namespace dewrite {
namespace {

constexpr std::size_t kRoundEvents = 40000;
constexpr std::size_t kChunk = 4096; // One service round per feed.

/** Two rounds of @p trace, generated before anything is counted. */
std::vector<MemEvent>
twoRounds(TraceSource &trace)
{
    std::vector<MemEvent> events(2 * kRoundEvents);
    for (MemEvent &event : events)
        EXPECT_TRUE(trace.next(event));
    return events;
}

/**
 * Heap allocations made while a push-mode core drains the second
 * round of @p events into a fresh System, after the first round
 * warmed it up.
 */
std::uint64_t
steadyStateAllocations(const std::vector<MemEvent> &events,
                       const SchemeOptions &scheme)
{
    // The DEWRITE_AUDIT epoch walk is a debugging mode that builds its
    // scratch tables per audit by design; the budget pinned here is the
    // default path's, so the System is built with the audit off even
    // when the whole suite runs under DEWRITE_AUDIT=1.
    const char *audit = envRaw("DEWRITE_AUDIT");
    const std::string saved = audit ? audit : "";
    unsetenv("DEWRITE_AUDIT");
    SystemConfig config;
    config.memory.numLines = 1u << 16;
    System system(config, scheme);
    if (audit)
        setenv("DEWRITE_AUDIT", saved.c_str(), 1);
    CoreModel core(system.config().timing);
    core.attach(system.controller());
    const auto feedRound = [&](const MemEvent *round) {
        for (std::size_t i = 0; i < kRoundEvents; i += kChunk)
            core.feed(round + i, std::min(kChunk, kRoundEvents - i));
    };

    feedRound(events.data());
    allocations.store(0);
    counting.store(true);
    feedRound(events.data() + kRoundEvents);
    const RunResult run = core.finish();
    counting.store(false);
    EXPECT_EQ(run.events, 2 * kRoundEvents);
    return allocations.load();
}

SchemeOptions
dewriteWith(DetectPolicy policy)
{
    SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    scheme.dewrite.detect = policy;
    return scheme;
}

/** A catalog app whose working set fits the test's memory. */
std::vector<MemEvent>
catalogEvents(std::size_t app)
{
    AppProfile profile = appCatalog()[app];
    profile.workingSetLines = 8192;
    SyntheticWorkload workload(profile, appSeed(profile));
    return twoRounds(workload);
}

/** Forged CRC-32 collisions: chains far longer than the catalog's. */
std::vector<MemEvent>
collisionEvents()
{
    CollisionTraceConfig trace_config;
    trace_config.anchorLines = 8;
    trace_config.workingSetLines = 4096;
    CollisionWorkload workload(trace_config, 7);
    return twoRounds(workload);
}

struct Workload
{
    std::string name;
    std::vector<MemEvent> events;
};

std::vector<Workload>
workloads()
{
    return { { "catalog-3", catalogEvents(3) },
             { "catalog-0", catalogEvents(0) },
             { "collisions", collisionEvents() } };
}

TEST(SteadyStateAllocations, DeWriteConfirmReadDrainAllocatesNothing)
{
    for (const Workload &w : workloads()) {
        EXPECT_EQ(steadyStateAllocations(
                      w.events, dewriteWith(DetectPolicy::ConfirmRead)),
                  0u)
            << w.name;
    }
}

TEST(SteadyStateAllocations, DeWriteWeakStrongDrainAllocatesNothing)
{
    for (const Workload &w : workloads()) {
        EXPECT_EQ(steadyStateAllocations(
                      w.events, dewriteWith(DetectPolicy::WeakStrong)),
                  0u)
            << w.name;
    }
}

TEST(SteadyStateAllocations, SecureBaselineDrainAllocatesNothing)
{
    for (const Workload &w : workloads()) {
        EXPECT_EQ(steadyStateAllocations(w.events,
                                         secureBaselineScheme()),
                  0u)
            << w.name;
    }
}

TEST(SteadyStateAllocations, CounterSeesAllocations)
{
    // The harness itself must not be vacuous: an armed counter sees a
    // plain heap allocation.
    allocations.store(0);
    counting.store(true);
    auto probe = std::make_unique<std::uint64_t>(1);
    counting.store(false);
    EXPECT_EQ(*probe, 1u);
    EXPECT_GE(allocations.load(), 1u);
}

} // namespace
} // namespace dewrite
