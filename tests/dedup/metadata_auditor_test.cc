/**
 * @file
 * MetadataAuditor tests: a clean engine audits clean, and each
 * deliberately corrupted table relationship — dangling inverted-hash
 * entry, refcount mismatch, double-homed counter, stray hash record,
 * bitmap drift, dangling mapping — is reported under the right named
 * invariant with usable context.
 */

#include "dedup/metadata_auditor.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/crc32.hh"
#include "common/rng.hh"
#include "dedup/dedup_engine.hh"
#include "dedup/recovery.hh"
#include "nvm/nvm_device.hh"
#include "sim/system.hh"

namespace dewrite {

/**
 * Test-only mutable access to the engine's tables (a friend of
 * DedupEngine). Production code corrupts nothing; the auditor tests
 * must, to prove each invariant is actually watched.
 */
class MetadataAuditorTestPeer
{
  public:
    static HashStore &hashStore(DedupEngine &e) { return e.hashStore_; }
    static SlotTable &slots(DedupEngine &e) { return e.slots_; }
    static FreeSpaceTable &fsm(DedupEngine &e) { return e.fsm_; }
    static DenseAddrMap<std::uint64_t> &overflow(DedupEngine &e)
    {
        return e.overflow_;
    }
    static DenseAddrMap<std::uint64_t> &majors(DedupEngine &e)
    {
        return e.majors_;
    }
    static Line decryptStored(DedupEngine &e, LineAddr slot)
    {
        return e.decryptStored(slot);
    }
};

namespace {

/** Scoped environment override (unset restores at destruction). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

class MetadataAuditorTest : public ::testing::Test
{
  protected:
    MetadataAuditorTest()
        : device_(config()), cme_(key()),
          metadata_(config(), device_, config().memory.numLines),
          engine_(config(), device_, metadata_, cme_)
    {
    }

    static const SystemConfig &
    config()
    {
        static SystemConfig instance = [] {
            SystemConfig c;
            c.memory.numLines = 1 << 12;
            return c;
        }();
        return instance;
    }

    static AesKey
    key()
    {
        AesKey k{};
        k[5] = 0x17;
        return k;
    }

    WriteCommit
    writeLine(LineAddr addr, const Line &data)
    {
        const DetectOutcome det = engine_.detect(data, now_, true);
        WriteCommit commit;
        if (det.duplicate) {
            commit = engine_.commitDuplicate(addr, det, det.done);
        } else {
            commit = engine_.commitUnique(
                addr, data, det.hash, det.done,
                det.done + config().timing.aesLine);
        }
        now_ = commit.done;
        return commit;
    }

    /** A workload with uniques, duplicates, and overwrites. */
    void
    populate()
    {
        Rng rng(1234);
        const Line a = Line::random(rng);
        const Line b = Line::random(rng);
        for (LineAddr addr = 1; addr <= 24; ++addr)
            writeLine(addr, Line::random(rng));
        for (LineAddr addr = 30; addr < 38; ++addr)
            writeLine(addr, a); // Duplicates of one content.
        for (LineAddr addr = 40; addr < 44; ++addr)
            writeLine(addr, b);
        for (LineAddr addr = 1; addr <= 6; ++addr)
            writeLine(addr, Line::random(rng)); // Overwrites.
    }

    AuditInvariant
    expectViolation()
    {
        const auto violation = MetadataAuditor(engine_).check();
        EXPECT_TRUE(violation.has_value());
        if (!violation)
            std::abort();
        EXPECT_FALSE(violation->detail.empty());
        return violation->invariant;
    }

    NvmDevice device_;
    CounterModeEngine cme_;
    MetadataCache metadata_;
    DedupEngine engine_;
    Time now_ = 0;
};

TEST_F(MetadataAuditorTest, CleanEngineAuditsClean)
{
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    populate();
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    MetadataAuditor(engine_).enforce("test"); // Must not die.
}

TEST_F(MetadataAuditorTest, DanglingInvertedHashEntryIsNamed)
{
    populate();
    // A data slot appears out of nowhere: no hash-store record backs
    // its fingerprint (the "dangling inverted-hash entry" corruption).
    MetadataAuditorTestPeer::slots(engine_).setHash(3000, 0xabcdef);
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::DataSlotHasHashRecord);
    EXPECT_EQ(violation->slot, 3000u);
    EXPECT_EQ(violation->expected, 0xabcdefu);
}

TEST_F(MetadataAuditorTest, ReferenceCountMismatchIsNamed)
{
    populate();
    // Slot 30's content is shared 8 ways; a spurious extra reference
    // makes the recorded count disagree with the mapping walk.
    const LineAddr slot = 30;
    ASSERT_TRUE(engine_.slots().holdsData(slot));
    const std::uint64_t hash = engine_.slots().hash(slot);
    ASSERT_TRUE(MetadataAuditorTestPeer::hashStore(engine_)
                    .addReference(hash, slot));
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::ReferenceCountMatches);
    EXPECT_EQ(violation->slot, slot);
    EXPECT_EQ(violation->actual, violation->expected + 1);
}

TEST_F(MetadataAuditorTest, DoubleHomedCounterIsNamed)
{
    populate();
    // Slot 10 keeps its own data, so its counter home is its (null)
    // mapping entry. A stale overflow entry for it means the counter
    // is double-homed.
    const LineAddr slot = 10;
    ASSERT_FALSE(engine_.slots().isRemapped(slot));
    MetadataAuditorTestPeer::overflow(engine_)[slot] = 7;
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant, AuditInvariant::CounterSingleHome);
    EXPECT_EQ(violation->slot, slot);
    EXPECT_EQ(violation->actual, 7u);
}

TEST_F(MetadataAuditorTest, StrayHashRecordIsNamed)
{
    populate();
    // A record pointing at a slot that holds no data (or other data)
    // is a stale-cleaning failure.
    MetadataAuditorTestPeer::hashStore(engine_).insert(0xdead, 3500);
    EXPECT_EQ(expectViolation(),
              AuditInvariant::HashRecordMatchesSlot);
}

TEST_F(MetadataAuditorTest, FsmDriftIsNamedBothDirections)
{
    populate();
    // Allocated-but-empty drift.
    MetadataAuditorTestPeer::fsm(engine_).allocate(3600);
    EXPECT_EQ(expectViolation(), AuditInvariant::FsmMatchesDataSlots);
    MetadataAuditorTestPeer::fsm(engine_).release(3600);
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());

    // Data-but-free drift: the slot walk reports the same invariant.
    const LineAddr slot = 12;
    ASSERT_TRUE(engine_.slots().holdsData(slot));
    MetadataAuditorTestPeer::fsm(engine_).release(slot);
    EXPECT_EQ(expectViolation(), AuditInvariant::FsmMatchesDataSlots);
}

TEST_F(MetadataAuditorTest, DanglingMappingIsNamed)
{
    populate();
    // Logical 100 remapped to a slot that holds nothing.
    MetadataAuditorTestPeer::slots(engine_).remap(100, 3700);
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::MappingTargetHoldsData);
    EXPECT_EQ(violation->logical, 100u);
    EXPECT_EQ(violation->slot, 3700u);
}

TEST_F(MetadataAuditorTest, WrongStrongFingerprintIsNamed)
{
    populate();
    // Seed a *valid-flagged* fingerprint that does not match the slot's
    // stored content: the two-tier detector would trust it and merge
    // distinct lines, so the auditor must call it out by name.
    const LineAddr slot = 30;
    ASSERT_TRUE(engine_.slots().holdsData(slot));
    const std::uint64_t hash = engine_.slots().hash(slot);
    MetadataAuditorTestPeer::hashStore(engine_).setStrongFp(
        hash, slot, StrongFp{ 0xdeadbeefu, 0xfeedfaceu });
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant,
              AuditInvariant::StrongFpMatchesStoredLine);
    EXPECT_EQ(violation->slot, slot);
    EXPECT_STREQ(auditInvariantName(violation->invariant),
                 "strong-fp-matches-stored-line");
}

TEST_F(MetadataAuditorTest, CorrectStrongFingerprintAuditsClean)
{
    populate();
    // The honest cache — the fingerprint of what the slot really
    // stores — must not trip the new invariant.
    const LineAddr slot = 30;
    ASSERT_TRUE(engine_.slots().holdsData(slot));
    const std::uint64_t hash = engine_.slots().hash(slot);
    MetadataAuditorTestPeer::hashStore(engine_).setStrongFp(
        hash, slot,
        strongFingerprint(
            MetadataAuditorTestPeer::decryptStored(engine_, slot)));
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
}

TEST_F(MetadataAuditorTest, FirstViolationIsDeterministic)
{
    populate();
    // Two independent corruptions: the report must pick the same one
    // every time (walk order, not hash-table luck).
    MetadataAuditorTestPeer::slots(engine_).setHash(3000, 0x111111);
    MetadataAuditorTestPeer::slots(engine_).setHash(3001, 0x222222);
    for (int i = 0; i < 3; ++i) {
        const auto violation = MetadataAuditor(engine_).check();
        ASSERT_TRUE(violation.has_value());
        EXPECT_EQ(violation->slot, 3000u);
    }
}

TEST_F(MetadataAuditorTest, RecoveryRebuildPassesAuditUnderEnv)
{
    populate();
    ScopedEnv env("DEWRITE_AUDIT", "1");
    RecoveryManager recovery(engine_);
    recovery.simulateCrashDamage();
    recovery.rebuild(); // enforce("recovery") runs inside; must not die.
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
}

/**
 * An engine with every optional piece of per-line state live: 2-bit
 * minor counters (so majors exist), weak+strong detection (so strong
 * fingerprints are cached) and a relocated shared line (so a counter
 * spills to the overflow store).
 */
class CrashDamageTest : public ::testing::Test
{
  protected:
    CrashDamageTest()
        : device_(config()), cme_(AesKey{}),
          metadata_(config(), device_, config().memory.numLines),
          engine_(config(), device_, metadata_, cme_, options())
    {
        Rng rng(77);
        const Line shared = Line::random(rng);
        write(1, shared);
        write(2, shared);
        write(1, Line::random(rng)); // Slot 1 keeps line 2's data.
        write(3, shared);            // A confirmation caches a strong fp.
        for (int i = 0; i < 9; ++i)
            write(5, Line::random(rng)); // Wraps slot 5's minor counter.
        for (LineAddr addr = 10; addr < 40; ++addr)
            write(addr, addr % 3 ? Line::random(rng) : shared);
    }

    static const SystemConfig &
    config()
    {
        static SystemConfig instance = [] {
            SystemConfig c;
            c.memory.numLines = 1 << 10;
            return c;
        }();
        return instance;
    }

    static DedupEngine::Options
    options()
    {
        DedupEngine::Options o;
        o.counterBits = 2;
        o.detect = DetectPolicy::WeakStrong;
        return o;
    }

    void
    write(LineAddr addr, const Line &data)
    {
        const DetectOutcome det = engine_.detect(data, now_, true);
        const WriteCommit commit = det.duplicate
            ? engine_.commitDuplicate(addr, det, det.done)
            : engine_.commitUnique(addr, data, det.hash, det.done,
                                   det.done);
        now_ = commit.done;
    }

    /** The first slot whose counter spilled to the overflow store. */
    LineAddr
    spilledSlot()
    {
        LineAddr spilled = kInvalidAddr;
        MetadataAuditorTestPeer::overflow(engine_).forEachSorted(
            [&](LineAddr slot, std::uint64_t) {
                if (spilled == kInvalidAddr)
                    spilled = slot;
            });
        return spilled;
    }

    NvmDevice device_;
    CounterModeEngine cme_;
    MetadataCache metadata_;
    DedupEngine engine_;
    Time now_ = 0;
};

/** Everything a crash must not touch, per line address. */
struct DurableState
{
    std::vector<std::uint64_t> mapValues, invValues, counters;
    std::vector<std::uint8_t> flags;
    std::vector<std::pair<LineAddr, std::uint64_t>> overflow, majors;

    bool operator==(const DurableState &) const = default;
};

constexpr std::uint8_t kDurableFlags =
    SlotRecord::kRemapped | SlotRecord::kHoldsData | SlotRecord::kWritten |
    SlotRecord::kHasOverflow | SlotRecord::kHasMajor;

DurableState
durableState(DedupEngine &engine)
{
    DurableState state;
    for (LineAddr addr = 0; addr < 1024; ++addr) {
        const SlotRecord rec = engine.slots().find(addr)
                                   ? *engine.slots().find(addr)
                                   : SlotRecord{};
        state.mapValues.push_back(rec.mapValue);
        state.invValues.push_back(rec.invValue);
        state.flags.push_back(
            static_cast<std::uint8_t>(rec.flags & kDurableFlags));
        state.counters.push_back(engine.counterOf(addr));
    }
    MetadataAuditorTestPeer::overflow(engine).forEachSorted(
        [&](LineAddr slot, std::uint64_t value) {
            state.overflow.emplace_back(slot, value);
        });
    MetadataAuditorTestPeer::majors(engine).forEachSorted(
        [&](LineAddr slot, std::uint64_t value) {
            state.majors.emplace_back(slot, value);
        });
    return state;
}

TEST_F(CrashDamageTest, WipesOnlyTheHashStoreAndFsm)
{
    const DurableState before = durableState(engine_);
    ASSERT_FALSE(before.overflow.empty());
    ASSERT_FALSE(before.majors.empty());
    bool any_strong = false;
    for (LineAddr addr = 0; addr < 1024; ++addr) {
        const SlotRecord *rec = engine_.slots().find(addr);
        any_strong |= rec && rec->has(SlotRecord::kStrongValid);
    }
    ASSERT_TRUE(any_strong);
    ASSERT_GT(engine_.hashStore().size(), 0u);

    RecoveryManager recovery(engine_);
    recovery.simulateCrashDamage();

    // Mapping, inverted-hash, written and counter state: bit-identical.
    EXPECT_TRUE(durableState(engine_) == before);
    // Hash-store fields and the FSM: wiped.
    for (LineAddr addr = 0; addr < 1024; ++addr) {
        const SlotRecord *rec = engine_.slots().find(addr);
        if (!rec)
            continue;
        EXPECT_EQ(rec->storeHash, 0u) << addr;
        EXPECT_EQ(rec->older, 0u) << addr;
        EXPECT_EQ(rec->reference, 0u) << addr;
        EXPECT_FALSE(rec->has(SlotRecord::kStrongValid)) << addr;
    }
    EXPECT_EQ(engine_.hashStore().size(), 0u);
    EXPECT_EQ(engine_.hashStore().distinctHashes(), 0u);
    EXPECT_EQ(engine_.freeSpace().freeCount(),
              engine_.freeSpace().capacity());

    // The durable half is enough to rebuild a consistent engine.
    recovery.rebuild();
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    EXPECT_TRUE(durableState(engine_) == before);
}

TEST_F(CrashDamageTest, UnflaggedOverflowCounterIsNamed)
{
    // Both homes of the slot are taken, so the overflow entry is legal
    // — but only while the record flags the spill; unflagged, the
    // counter would read as 0 and a pad would repeat.
    EXPECT_FALSE(MetadataAuditor(engine_).check().has_value());
    const LineAddr slot = spilledSlot();
    ASSERT_NE(slot, kInvalidAddr);
    MetadataAuditorTestPeer::slots(engine_).ref(slot).clear(
        SlotRecord::kHasOverflow);
    const auto violation = MetadataAuditor(engine_).check();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->invariant, AuditInvariant::CounterSingleHome);
    EXPECT_EQ(violation->slot, slot);
}

TEST(MetadataAuditorDeathTest, EnforceNamesTheInvariant)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SystemConfig config;
    config.memory.numLines = 1 << 10;
    NvmDevice device(config);
    AesKey key{};
    MetadataCache metadata(config, device, config.memory.numLines);
    CounterModeEngine cme(key);
    DedupEngine engine(config, device, metadata, cme);
    MetadataAuditorTestPeer::slots(engine).setHash(5, 0xbeef);
    EXPECT_DEATH(MetadataAuditor(engine).enforce("test"),
                 "data-slot-has-hash-record");
}

TEST(MetadataAuditorEnvTest, AuditDisabledByDefault)
{
    ::unsetenv("DEWRITE_AUDIT");
    EXPECT_FALSE(auditEnabled());
}

TEST(MetadataAuditorEnvTest, AuditFlagParses)
{
    {
        ScopedEnv env("DEWRITE_AUDIT", "1");
        EXPECT_TRUE(auditEnabled());
    }
    {
        ScopedEnv env("DEWRITE_AUDIT", "0");
        EXPECT_FALSE(auditEnabled());
    }
}

TEST(MetadataAuditorEnvTest, EpochDefaultsAndParses)
{
    ::unsetenv("DEWRITE_AUDIT_EPOCH");
    EXPECT_EQ(auditEpochWrites(), 10000u);
    ScopedEnv env("DEWRITE_AUDIT_EPOCH", "128");
    EXPECT_EQ(auditEpochWrites(), 128u);
}

TEST(MetadataAuditorEnvDeathTest, MalformedFlagDiesLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_AUDIT", "yes");
    EXPECT_EXIT(auditEnabled(), ::testing::ExitedWithCode(1),
                "DEWRITE_AUDIT");
}

TEST(MetadataAuditorEnvDeathTest, MalformedEpochDiesLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv env("DEWRITE_AUDIT_EPOCH", "0");
    EXPECT_EXIT(auditEpochWrites(), ::testing::ExitedWithCode(1),
                "DEWRITE_AUDIT_EPOCH");
}

TEST(MetadataAuditorSystemTest, EpochAndRunEndAuditsFire)
{
    // A full System honors the env contract: with a small audit epoch,
    // several epoch audits plus the run-end audit execute cleanly.
    ScopedEnv audit("DEWRITE_AUDIT", "1");
    ScopedEnv epoch("DEWRITE_AUDIT_EPOCH", "16");
    SystemConfig config;
    config.memory.numLines = 1 << 12;
    System system(config, SchemeOptions{});
    Rng rng(99);
    const Line shared = Line::random(rng);
    for (LineAddr addr = 0; addr < 48; ++addr)
        system.write(addr, addr % 3 ? Line::random(rng) : shared);
    const auto &controller =
        dynamic_cast<const DeWriteController &>(system.controller());
    EXPECT_GE(controller.auditsRun(), 3u);
    controller.auditNow("test");
}

} // namespace
} // namespace dewrite
