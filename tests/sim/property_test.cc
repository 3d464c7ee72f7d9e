/**
 * @file
 * Property-based tests: invariants that must hold for any workload,
 * swept with parameterized seeds and schemes.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hh"
#include "controller/dewrite_controller.hh"
#include "sim/system.hh"

namespace dewrite {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    return config;
}

/** Random mixed workload against a reference map, any scheme. */
struct PropertyCase
{
    SchemeKind kind;
    DedupMode mode;       //!< Only for DeWrite.
    BitTechnique technique;
    std::uint64_t seed;
};

class RoundTripProperty : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(RoundTripProperty, EveryReadReturnsLastWrite)
{
    const PropertyCase &param = GetParam();
    SchemeOptions scheme;
    scheme.kind = param.kind;
    scheme.dewrite.mode = param.mode;
    scheme.dewrite.technique = param.technique;
    scheme.baseline.technique = param.technique;

    System system(smallConfig(), scheme);
    Rng rng(param.seed);
    std::unordered_map<LineAddr, Line> reference;
    std::vector<Line> pool;

    for (int op = 0; op < 600; ++op) {
        const LineAddr addr = rng.nextBelow(96);
        if (reference.empty() || rng.chance(0.6)) {
            Line data;
            const double selector = rng.nextDouble();
            if (!pool.empty() && selector < 0.4) {
                data = pool[rng.nextBelow(pool.size())]; // Duplicate.
            } else if (selector < 0.5) {
                data = Line(); // Zero line.
            } else if (selector < 0.7 && reference.contains(addr)) {
                data = reference[addr]; // Silent store or mutation base.
                data.setWord64(rng.nextBelow(32), rng.next64());
            } else {
                data = Line::random(rng);
            }
            pool.push_back(data);
            system.write(addr, data);
            reference[addr] = data;
        } else {
            auto it = reference.begin();
            std::advance(it, rng.nextBelow(reference.size()));
            const CtrlReadResult read = system.read(it->first);
            ASSERT_TRUE(read.valid);
            ASSERT_EQ(read.data, it->second)
                << "addr " << it->first << " op " << op;
        }
    }
    // Final sweep: every line readable and exact.
    for (const auto &[addr, expected] : reference) {
        const CtrlReadResult read = system.read(addr);
        ASSERT_TRUE(read.valid);
        ASSERT_EQ(read.data, expected) << "addr " << addr;
    }
}

std::vector<PropertyCase>
roundTripCases()
{
    std::vector<PropertyCase> cases;
    for (std::uint64_t seed : { 1ULL, 2ULL, 3ULL }) {
        cases.push_back({ SchemeKind::Plain, DedupMode::Predicted,
                          BitTechnique::None, seed });
        cases.push_back({ SchemeKind::SecureBaseline,
                          DedupMode::Predicted, BitTechnique::None,
                          seed });
        for (DedupMode mode : { DedupMode::Direct, DedupMode::Parallel,
                                DedupMode::Predicted }) {
            cases.push_back({ SchemeKind::DeWrite, mode,
                              BitTechnique::None, seed });
        }
        cases.push_back({ SchemeKind::DeWrite, DedupMode::Predicted,
                          BitTechnique::Deuce, seed });
        cases.push_back({ SchemeKind::SecureBaseline,
                          DedupMode::Predicted, BitTechnique::Fnw,
                          seed });
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Schemes, RoundTripProperty,
                         ::testing::ValuesIn(roundTripCases()));

class EngineInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineInvariants, StructuralConsistencyAfterRandomWorkload)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    DeWriteController ctrl(config, device, defaultAesKey(), {});
    Rng rng(GetParam());

    std::vector<Line> pool;
    for (int op = 0; op < 800; ++op) {
        const LineAddr addr = rng.nextBelow(128);
        Line data;
        if (!pool.empty() && rng.chance(0.5)) {
            data = pool[rng.nextBelow(pool.size())];
        } else {
            data = Line::random(rng);
            pool.push_back(data);
        }
        ctrl.write(addr, data, 0);
    }

    const DedupEngine &engine = ctrl.engine();

    // Invariant 1: total hash-store references equal the number of
    // logical lines with live data (each references exactly one slot),
    // unless saturation pinned something (not reachable in 800 ops
    // over this pool size).
    std::uint64_t total_refs = 0;
    engine.hashStore().forEach(
        [&](std::uint32_t, const HashEntry &entry) {
            total_refs += entry.reference;
        });

    std::uint64_t live_logicals = 0;
    for (LineAddr addr = 0; addr < 128; ++addr)
        live_logicals += ctrl.read(addr, 0).valid;
    EXPECT_EQ(total_refs, live_logicals);

    // Invariant 2: every hash-store record's slot holds data and its
    // inverted-hash entry matches the record's hash.
    engine.hashStore().forEach(
        [&](std::uint32_t hash, const HashEntry &entry) {
            EXPECT_TRUE(engine.slots().holdsData(entry.realAddr));
            EXPECT_EQ(engine.slots().hash(entry.realAddr), hash);
            EXPECT_FALSE(engine.freeSpace().isFree(entry.realAddr));
        });

    // Invariant 3: data-slot count agrees between the inverted hash
    // table and the hash store.
    EXPECT_EQ(engine.slots().dataSlots(),
              engine.hashStore().size());

    // Invariant 4: allocated slot count equals data slots (every
    // allocation holds live data once the write committed).
    EXPECT_EQ(engine.freeSpace().capacity() -
                  engine.freeSpace().freeCount(),
              engine.slots().dataSlots());

    // Invariant 5: counter colocation overflow is bounded (tiny
    // relative to traffic; see DESIGN.md Section 5).
    EXPECT_LT(engine.overflowCounters(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariants,
                         ::testing::Values(11, 22, 33, 44, 55));

class PredictorSweep : public ::testing::TestWithParam<unsigned>
{
};

namespace {

double
stickyStreamAccuracy(unsigned window_bits)
{
    DupPredictor predictor(window_bits);
    Rng rng(7);
    bool phase = false;
    for (int i = 0; i < 20000; ++i) {
        if (!rng.chance(0.99))
            phase = !phase;
        const bool state = rng.chance(0.04) ? !phase : phase;
        predictor.recordAndScore(state);
    }
    return predictor.accuracy();
}

} // namespace

TEST_P(PredictorSweep, SmallWindowsTrackStickyStreams)
{
    // The paper's operating range (k <= 5): well above chance.
    EXPECT_GT(stickyStreamAccuracy(GetParam()), 0.85);
}

INSTANTIATE_TEST_SUITE_P(Windows, PredictorSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(PredictorSweepTest, OversizedWindowsLagPhaseChanges)
{
    // Why the paper stops at 3 bits: a long window smooths glitches
    // but pays ~k/2 errors on every phase flip, so accuracy falls off.
    EXPECT_LT(stickyStreamAccuracy(32), stickyStreamAccuracy(3));
}

} // namespace
} // namespace dewrite
