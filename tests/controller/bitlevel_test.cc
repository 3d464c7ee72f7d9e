/**
 * @file
 * Bit-level reducer tests: the Figure 13 technique set.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "controller/bitlevel/bitflip.hh"
#include "controller/bitlevel/deuce.hh"
#include "controller/bitlevel/shredder.hh"
#include "crypto/counter_mode.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace dewrite {
namespace {

AesKey
testKey()
{
    AesKey key{};
    key[7] = 0x99;
    return key;
}

class BitLevelTest : public ::testing::Test
{
  protected:
    BitLevelTest() : cme_(testKey()) {}

    /**
     * Writes @p pt to @p slot at @p counter the way the controllers
     * do: the reducer sees the ciphertext they stored.
     */
    std::size_t
    write(BitLevelReducer &reducer, LineAddr slot, const Line &pt,
          std::uint64_t counter) const
    {
        return reducer.onWrite(slot, pt,
                               cme_.encryptLine(pt, slot, counter),
                               counter);
    }

    /**
     * Mean flip fraction over @p writes rewrites of one slot, where
     * each rewrite changes @p mutated_words 64-bit words of plaintext.
     */
    double
    flipFraction(BitTechnique technique, int writes, int mutated_words)
    {
        auto reducer = makeReducer(technique);
        Rng rng(91);
        Line pt = Line::random(rng);
        std::uint64_t counter = 0;
        write(*reducer, 7, pt, ++counter); // Initial fill.
        std::size_t flips = 0;
        for (int w = 0; w < writes; ++w) {
            for (int m = 0; m < mutated_words; ++m)
                pt.setWord64(rng.nextBelow(32), rng.next64());
            flips += write(*reducer, 7, pt, ++counter);
        }
        return static_cast<double>(flips) /
               (static_cast<double>(writes) * kLineBits);
    }

    CounterModeEngine cme_;
};

TEST_F(BitLevelTest, FullWriteProgramsEverything)
{
    EXPECT_EQ(makeReducer(BitTechnique::None), nullptr);

    // Without a reducer the controller charges the full line itself.
    // Sixteen distinct lines never evict a counter block, so every
    // wear bit comes from a data write.
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    System system(config, secureBaselineScheme());
    Rng rng(90);
    constexpr std::uint64_t kWrites = 16;
    for (LineAddr addr = 0; addr < kWrites; ++addr)
        system.write(addr * 97, Line::random(rng));
    EXPECT_EQ(system.device().numBackgroundWrites(), 0u);
    EXPECT_EQ(system.device().wear().totalBitsWritten(),
              kWrites * kLineBits);
}

TEST_F(BitLevelTest, DcwOnEncryptedDataIsHalf)
{
    // Diffusion: every re-encryption flips ~50% of cells no matter how
    // small the plaintext change (the paper's DCW column).
    EXPECT_NEAR(flipFraction(BitTechnique::Dcw, 100, 1), 0.50, 0.02);
}

TEST_F(BitLevelTest, FnwBoundsFlipsBelowDcw)
{
    // E[min(d, 17-d)] for d ~ Binomial(16, 1/2) is ~43% of bits.
    const double fnw = flipFraction(BitTechnique::Fnw, 100, 1);
    EXPECT_NEAR(fnw, 0.43, 0.02);
}

TEST_F(BitLevelTest, DeuceExploitsSparseWrites)
{
    // With one mutated word per write, DEUCE re-encrypts only the
    // accumulated modified set — far fewer flips than DCW's 50%.
    const double deuce = flipFraction(BitTechnique::Deuce, 100, 1);
    EXPECT_LT(deuce, 0.35);
    EXPECT_GT(deuce, 0.01);
}

TEST_F(BitLevelTest, DeuceDegradesTowardDcwOnDenseWrites)
{
    const double dense = flipFraction(BitTechnique::Deuce, 100, 32);
    EXPECT_NEAR(dense, 0.50, 0.05);
}

TEST_F(BitLevelTest, DeuceEpochBoundaryReencryptsFully)
{
    auto reducer = makeReducer(BitTechnique::Deuce);
    Rng rng(92);
    Line pt = Line::random(rng);
    write(*reducer, 3, pt, 1);
    // Counter 32 is an epoch boundary: even an unchanged plaintext
    // re-encrypts the full line (~50% flips).
    std::uint64_t counter = 1;
    std::size_t epoch_flips = 0;
    while (counter < DeuceReducer::kEpochInterval) {
        ++counter;
        const std::size_t flips = write(*reducer, 3, pt, counter);
        if (counter == DeuceReducer::kEpochInterval)
            epoch_flips = flips;
        else
            EXPECT_EQ(flips, 0u) << "counter " << counter;
    }
    EXPECT_NEAR(static_cast<double>(epoch_flips) / kLineBits, 0.5, 0.05);
}

TEST_F(BitLevelTest, SecretBeatsDeuceOnZeroHeavyData)
{
    // Lines whose rewrites zero out words: SECRET stores the zeros
    // raw and repeated zeroing is free; DEUCE re-encrypts them.
    auto secret = makeReducer(BitTechnique::Secret);
    auto deuce = makeReducer(BitTechnique::Deuce);
    Rng rng(95);
    Line pt = Line::random(rng);
    std::uint64_t counter = 0;
    write(*secret, 9, pt, counter + 1);
    write(*deuce, 9, pt, counter + 1);
    ++counter;

    std::size_t secret_flips = 0, deuce_flips = 0;
    for (int w = 0; w < 60; ++w) {
        // Alternate between zeroing a word and writing data into it.
        const std::size_t word = rng.nextBelow(32);
        pt.setWord64(word, (w % 2 == 0) ? 0 : rng.next64());
        ++counter;
        secret_flips += write(*secret, 9, pt, counter);
        deuce_flips += write(*deuce, 9, pt, counter);
    }
    EXPECT_LT(secret_flips, deuce_flips);
}

TEST_F(BitLevelTest, SecretMatchesDeuceOnNonZeroData)
{
    // Without zero words SECRET degenerates to DEUCE-like behaviour.
    const double secret = flipFraction(BitTechnique::Secret, 60, 1);
    const double deuce = flipFraction(BitTechnique::Deuce, 60, 1);
    EXPECT_NEAR(secret, deuce, 0.05);
}

TEST_F(BitLevelTest, SecretZeroLineIsCheapAfterFirstZeroing)
{
    auto secret = makeReducer(BitTechnique::Secret);
    Rng rng(96);
    write(*secret, 2, Line::random(rng), 1);
    write(*secret, 2, Line(), 2);
    // Re-zeroing an already-zero line programs nothing.
    EXPECT_EQ(write(*secret, 2, Line(), 3), 0u);
}

TEST_F(BitLevelTest, FirstWriteFromFreshCells)
{
    // Fresh PCM reads zero; the first encrypted write programs ~half
    // the cells under DCW (random ciphertext vs zeros).
    auto reducer = makeReducer(BitTechnique::Dcw);
    Rng rng(93);
    const std::size_t flips = write(*reducer, 1, Line::random(rng), 1);
    EXPECT_NEAR(static_cast<double>(flips) / kLineBits, 0.5, 0.05);
}

TEST_F(BitLevelTest, TechniqueNamesAreStable)
{
    EXPECT_EQ(bitTechniqueName(BitTechnique::None), "Full");
    EXPECT_EQ(bitTechniqueName(BitTechnique::Dcw), "DCW");
    EXPECT_EQ(bitTechniqueName(BitTechnique::Fnw), "FNW");
    EXPECT_EQ(bitTechniqueName(BitTechnique::Deuce), "DEUCE");
    EXPECT_EQ(bitTechniqueName(BitTechnique::Secret), "SECRET");
}

TEST_F(BitLevelTest, FactoryProducesMatchingTechnique)
{
    for (BitTechnique t : { BitTechnique::Dcw, BitTechnique::Fnw,
                            BitTechnique::Deuce, BitTechnique::Secret }) {
        EXPECT_EQ(makeReducer(t)->technique(), t);
    }
}

TEST(ZeroLineDirectoryTest, MarkClearLifecycle)
{
    ZeroLineDirectory zeros;
    EXPECT_FALSE(zeros.isZeroed(5));
    zeros.markZeroed(5);
    EXPECT_TRUE(zeros.isZeroed(5));
    EXPECT_EQ(zeros.eliminatedWrites(), 1u);
    EXPECT_EQ(zeros.zeroedLines(), 1u);
    zeros.clearZeroed(5);
    EXPECT_FALSE(zeros.isZeroed(5));
    EXPECT_EQ(zeros.eliminatedWrites(), 1u); // Cumulative.
}

} // namespace
} // namespace dewrite
