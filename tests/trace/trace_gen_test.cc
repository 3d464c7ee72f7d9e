/**
 * @file
 * Synthetic workload generator tests.
 */

#include "trace/trace_gen.hh"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/app_catalog.hh"
#include "trace/workload_stats.hh"

namespace dewrite {
namespace {

AppProfile
testProfile(double dup_target)
{
    AppProfile profile;
    profile.name = "test";
    profile.suite = "TEST";
    profile.dupTarget = dup_target;
    profile.zeroGivenDup = 0.2;
    profile.statePersistence = 0.9;
    profile.writeFraction = 0.5;
    profile.rewriteFraction = 0.6;
    profile.mutateWordsMax = 6;
    profile.workingSetLines = 4096;
    profile.instGapMean = 100.0;
    profile.popularityTheta = 0.7;
    return profile;
}

TEST(SyntheticWorkloadTest, Deterministic)
{
    SyntheticWorkload a(testProfile(0.5), 7);
    SyntheticWorkload b(testProfile(0.5), 7);
    for (int i = 0; i < 1000; ++i) {
        MemEvent ea, eb;
        ASSERT_TRUE(a.next(ea));
        ASSERT_TRUE(b.next(eb));
        EXPECT_EQ(ea.isWrite, eb.isWrite);
        EXPECT_EQ(ea.addr, eb.addr);
        EXPECT_EQ(ea.instGap, eb.instGap);
        if (ea.isWrite) {
            EXPECT_EQ(ea.data, eb.data);
        }
    }
}

/**
 * FNV-1a hash of the first @p events events of @p app run as 4
 * instances sharing one SharedPhase (the experiment's multi-core
 * layout), pulled round-robin. Each event contributes its address,
 * kind, instruction gap and all 32 data words.
 */
std::uint64_t
catalogStreamHash(const std::string &app, int events)
{
    const AppProfile &profile = appByName(app);
    auto phase = std::make_shared<SharedPhase>();
    std::vector<std::unique_ptr<SyntheticWorkload>> instances;
    for (unsigned core = 0; core < 4; ++core) {
        instances.push_back(std::make_unique<SyntheticWorkload>(
            profile, 100 + core,
            static_cast<LineAddr>(core) * profile.workingSetLines * 2,
            phase));
    }
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (int i = 0; i < events; ++i) {
        MemEvent event;
        EXPECT_TRUE(instances[i % 4]->next(event));
        mix(event.addr);
        mix(event.isWrite);
        mix(event.instGap);
        for (std::size_t word = 0; word < kLineSize / 8; ++word)
            mix(event.data.word64(word));
    }
    return hash;
}

TEST(SyntheticWorkloadTest, PinnedCatalogStreams)
{
    // Pins the generator's output bit for bit (Deterministic only
    // compares two instances of the same code). The apps span the
    // zero-dominated (sjeng), high-dup (lbm), lowest-dup (vips) and a
    // large-working-set low-dup (canneal) profile.
    EXPECT_EQ(catalogStreamHash("sjeng", 40000), 0x6c8077ac45426d48ULL);
    EXPECT_EQ(catalogStreamHash("lbm", 40000), 0xcb30f11c7e16b711ULL);
    EXPECT_EQ(catalogStreamHash("vips", 40000), 0xda5a9b7c977b42bcULL);
    EXPECT_EQ(catalogStreamHash("canneal", 40000), 0x41f14bda2050263cULL);
}

TEST(SyntheticWorkloadTest, SeedsDiverge)
{
    SyntheticWorkload a(testProfile(0.5), 1);
    SyntheticWorkload b(testProfile(0.5), 2);
    int identical = 0;
    for (int i = 0; i < 200; ++i) {
        MemEvent ea, eb;
        a.next(ea);
        b.next(eb);
        identical += ea.addr == eb.addr && ea.isWrite == eb.isWrite;
    }
    EXPECT_LT(identical, 150);
}

TEST(SyntheticWorkloadTest, FirstEventIsWrite)
{
    SyntheticWorkload workload(testProfile(0.5), 3);
    MemEvent event;
    ASSERT_TRUE(workload.next(event));
    EXPECT_TRUE(event.isWrite);
}

TEST(SyntheticWorkloadTest, ReadsTargetWrittenAddresses)
{
    SyntheticWorkload workload(testProfile(0.5), 4);
    std::unordered_map<LineAddr, bool> written;
    MemEvent event;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(workload.next(event));
        if (event.isWrite)
            written[event.addr] = true;
        else
            EXPECT_TRUE(written.contains(event.addr)) << "event " << i;
    }
}

TEST(SyntheticWorkloadTest, DupFractionTracksTarget)
{
    for (double target : { 0.2, 0.5, 0.9 }) {
        SyntheticWorkload workload(testProfile(target), 5);
        const WorkloadStats stats = measureWorkload(workload, 30000);
        EXPECT_NEAR(stats.dupFraction(), target, 0.08)
            << "target " << target;
    }
}

TEST(SyntheticWorkloadTest, StatePersistenceEmergesFromMarkovChain)
{
    SyntheticWorkload workload(testProfile(0.5), 6);
    const WorkloadStats stats = measureWorkload(workload, 30000);
    EXPECT_GT(stats.statePersistence(), 0.85);
}

TEST(SyntheticWorkloadTest, WorkingSetBoundsAddresses)
{
    AppProfile profile = testProfile(0.5);
    profile.workingSetLines = 256;
    SyntheticWorkload workload(profile, 7);
    MemEvent event;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(workload.next(event));
        EXPECT_LT(event.addr, 256u);
    }
}

TEST(SyntheticWorkloadTest, ZeroLinesAppearInDupHeavyStreams)
{
    AppProfile profile = testProfile(0.8);
    profile.zeroGivenDup = 0.9;
    SyntheticWorkload workload(profile, 8);
    const WorkloadStats stats = measureWorkload(workload, 20000);
    EXPECT_GT(stats.zeroFraction(), 0.4);
}

TEST(WorstCaseWorkloadTest, NoDuplicatesEver)
{
    WorstCaseWorkload workload(512, 100.0, 9);
    const WorkloadStats stats = measureWorkload(workload, 20000);
    EXPECT_EQ(stats.duplicateWrites, 0u);
    EXPECT_EQ(stats.zeroWrites, 0u);
}

TEST(WorstCaseWorkloadTest, AlternatesWriteAndReadPasses)
{
    WorstCaseWorkload workload(16, 100.0, 10);
    MemEvent event;
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(workload.next(event));
        EXPECT_TRUE(event.isWrite);
        EXPECT_EQ(event.addr, static_cast<LineAddr>(i));
    }
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(workload.next(event));
        EXPECT_FALSE(event.isWrite);
    }
    ASSERT_TRUE(workload.next(event));
    EXPECT_TRUE(event.isWrite); // Next write pass with fresh values.
}

} // namespace
} // namespace dewrite
