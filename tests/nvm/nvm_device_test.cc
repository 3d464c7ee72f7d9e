/**
 * @file
 * NVM device tests: functional storage, timing, energy, wear.
 */

#include "nvm/nvm_device.hh"

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace dewrite {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    return config;
}

TEST(NvmDeviceTest, UnwrittenLinesReadZero)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    EXPECT_FALSE(device.isWritten(42));
    EXPECT_TRUE(device.read(42, 0).data.isZero());
}

TEST(NvmDeviceTest, WriteThenReadReturnsData)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    Rng rng(51);
    const Line data = Line::random(rng);
    device.write(7, data, 0);
    EXPECT_TRUE(device.isWritten(7));
    EXPECT_EQ(device.read(7, 1000000).data, data);
    EXPECT_EQ(device.peek(7), data);
}

TEST(NvmDeviceTest, ReadWriteLatenciesMatchConfig)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    const NvmTiming write = device.write(1, Line(), 0);
    EXPECT_EQ(write.latency(0), config.timing.nvmWrite);
    const NvmAccess read = device.read(2, 0); // Different bank.
    EXPECT_EQ(read.latency(0), config.timing.nvmRead);
}

TEST(NvmDeviceTest, SameBankSerializes)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    const unsigned banks = config.timing.numBanks;
    device.write(0, Line(), 0);
    // Address 'banks' maps to the same bank as address 0.
    const NvmAccess blocked = device.read(banks, 0);
    EXPECT_EQ(blocked.queueDelay, config.timing.nvmWrite);
    // A different bank proceeds immediately.
    const NvmAccess free = device.read(1, 0);
    EXPECT_EQ(free.queueDelay, 0u);
}

TEST(NvmDeviceTest, EnergyAccounting)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.write(0, Line(), 0); // Full line.
    EXPECT_EQ(device.totalEnergy(), config.energy.nvmWriteLine());
    // A read in a different row pays the full array access...
    const LineAddr far_row =
        config.timing.numBanks * config.timing.linesPerRow;
    device.read(far_row, 0);
    EXPECT_EQ(device.totalEnergy(),
              config.energy.nvmWriteLine() + config.energy.nvmReadLine());
    // ...while re-reading the open row costs only the sense path.
    device.read(far_row, 0);
    EXPECT_EQ(device.totalEnergy(),
              config.energy.nvmWriteLine() + config.energy.nvmReadLine() +
                  config.energy.nvmRowHitPerBit * kLineBits);
    EXPECT_EQ(device.rowBufferHits(), 1u);
}

TEST(NvmDeviceTest, RowBufferHitIsFaster)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    const NvmAccess cold = device.read(5, 0);
    EXPECT_EQ(cold.latency(0), config.timing.nvmRead);
    const NvmAccess hot = device.read(5, cold.complete);
    EXPECT_EQ(hot.latency(cold.complete), config.timing.nvmRowHit);
    // A neighbouring line of the same bank shares the row.
    const LineAddr neighbour = 5 + config.timing.numBanks;
    const NvmAccess same_row = device.read(neighbour, hot.complete);
    EXPECT_EQ(same_row.latency(hot.complete), config.timing.nvmRowHit);
}

TEST(NvmDeviceTest, WriteOpensRow)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.write(3, Line(), 0);
    const NvmAccess read = device.read(3, 10000000);
    EXPECT_EQ(read.latency(10000000), config.timing.nvmRowHit);
}

TEST(NvmDeviceTest, PartialBitWriteCostsLess)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.write(0, Line(), 0, 100);
    EXPECT_EQ(device.totalEnergy(), 100 * config.energy.nvmWritePerBit);
    EXPECT_EQ(device.wear().totalBitsWritten(), 100u);
}

TEST(NvmDeviceTest, WearTracksPerLine)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.write(5, Line(), 0);
    device.write(5, Line::filled(1), 0);
    device.write(6, Line(), 0);
    EXPECT_EQ(device.wear().lineWrites(5), 2u);
    EXPECT_EQ(device.wear().lineWrites(6), 1u);
    EXPECT_EQ(device.wear().totalWrites(), 3u);
    EXPECT_EQ(device.wear().maxLineWrites(), 2u);
    EXPECT_EQ(device.wear().linesTouched(), 2u);
}

TEST(NvmDeviceTest, OverwriteReplacesContent)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.write(3, Line::filled(0xaa), 0);
    device.write(3, Line::filled(0xbb), 0);
    EXPECT_EQ(device.peek(3), Line::filled(0xbb));
}

TEST(NvmDeviceTest, QueueDelayAggregation)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.write(0, Line(), 0);
    device.read(config.timing.numBanks, 0); // Same bank: waits.
    EXPECT_EQ(device.totalQueueDelay(), config.timing.nvmWrite);
}

TEST(AddressDecoderTest, LineInterleaveRotatesBanks)
{
    AddressDecoder decoder(8, 8, InterleavePolicy::Line);
    for (LineAddr addr = 0; addr < 16; ++addr)
        EXPECT_EQ(decoder.decode(addr).bank, addr % 8);
    EXPECT_EQ(decoder.decode(8).row, 1u);
}

TEST(AddressDecoderTest, RowInterleaveKeepsRowsTogether)
{
    AddressDecoder decoder(8, 8, InterleavePolicy::Row);
    // The first 8 lines share bank 0; the next 8 land on bank 1.
    for (LineAddr addr = 0; addr < 8; ++addr)
        EXPECT_EQ(decoder.decode(addr).bank, 0u);
    for (LineAddr addr = 8; addr < 16; ++addr)
        EXPECT_EQ(decoder.decode(addr).bank, 1u);
}

TEST(AddressDecoderTest, RowInterleaveRowsAreDistinctPerGroup)
{
    AddressDecoder decoder(4, 8, InterleavePolicy::Row);
    // Same bank, different row groups: lines 0 and 32 (4 banks x 8).
    const DecodedAddr first = decoder.decode(0);
    const DecodedAddr second = decoder.decode(32);
    EXPECT_EQ(first.bank, second.bank);
    EXPECT_NE(first.row / 8, second.row / 8);
}

TEST(NvmDeviceTest, RowInterleaveMakesSequentialReadsRowHits)
{
    SystemConfig config = smallConfig();
    config.timing.rowInterleave = true;
    NvmDevice device(config);
    const NvmAccess first = device.read(0, 0);
    EXPECT_EQ(first.latency(0), config.timing.nvmRead);
    // The next sequential lines share the bank's open row.
    Time now = first.complete;
    for (LineAddr addr = 1; addr < config.timing.linesPerRow; ++addr) {
        const NvmAccess access = device.read(addr, now);
        EXPECT_EQ(access.latency(now), config.timing.nvmRowHit)
            << "addr " << addr;
        now = access.complete;
    }
}

TEST(NvmDeviceTest, BackgroundWriteChargesEverythingButBankTime)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.writeBackgroundZero(5, 128);

    EXPECT_EQ(device.numWrites(), 1u);
    EXPECT_EQ(device.numBackgroundWrites(), 1u);
    EXPECT_EQ(device.totalEnergy(), 128 * config.energy.nvmWritePerBit);
    EXPECT_EQ(device.wear().lineWrites(5), 1u);
    EXPECT_EQ(device.wear().totalBitsWritten(), 128u);
    EXPECT_TRUE(device.peek(5).isZero());
    // No bank was occupied: a read to the same bank starts at once.
    const NvmAccess read = device.read(5, 0);
    EXPECT_EQ(read.queueDelay, 0u);
}

#if !defined(NDEBUG) || defined(DEWRITE_FORCE_DCHECKS)
TEST(NvmDeviceDeathTest, BackgroundZeroOverDataDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    device.write(5, Line::filled(7), 0);
    EXPECT_DEATH(device.writeBackgroundZero(5),
                 "writeBackgroundZero over non-zero line 5");
}
#endif

TEST(WearTrackerTest, RelativeLifetimeScalesInversely)
{
    WearTracker heavy;
    WearTracker light;
    for (int i = 0; i < 100; ++i)
        heavy.recordWrite(i, kLineBits);
    for (int i = 0; i < 50; ++i)
        light.recordWrite(i, kLineBits);
    EXPECT_DOUBLE_EQ(light.relativeLifetime(1000, 10) /
                         heavy.relativeLifetime(1000, 10),
                     2.0);
}

} // namespace
} // namespace dewrite
