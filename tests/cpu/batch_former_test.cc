/**
 * @file
 * BatchFormer tests: staging, the stage-order hand-off to
 * MemController::writeBatch(), the kMaxWriteBatch capacity, slot
 * lifetimes and the flush-reason accounting — against a controller
 * that records every write it is handed.
 */

#include "cpu/batch_former.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"

namespace dewrite {
namespace {

/** Records every write; latency encodes the call order. */
class RecordingController : public MemController
{
  public:
    struct Call
    {
        LineAddr addr;
        Line data;
        Time now;
    };

    CtrlWriteResult
    write(LineAddr addr, const Line &data, Time now) override
    {
        calls.push_back({ addr, data, now });
        noteWrite(0, false, 0);
        return { static_cast<Time>(calls.size()), false };
    }

    void
    writeBatch(const CtrlWriteRequest *requests, CtrlWriteResult *results,
               std::size_t count) override
    {
        batchSizes.push_back(count);
        MemController::writeBatch(requests, results, count);
    }

    CtrlReadResult read(LineAddr, Time) override { return {}; }
    std::string name() const override { return "recording"; }
    Energy controllerEnergy() const override { return 0; }

    std::vector<Call> calls;
    std::vector<std::size_t> batchSizes;
};

using Reason = BatchFormer::FlushReason;

TEST(BatchFormerTest, FlushHandsStagedWritesOverInStageOrder)
{
    Rng rng(7);
    std::vector<Line> lines;
    for (int i = 0; i < 3; ++i)
        lines.push_back(Line::random(rng));

    BatchFormer former;
    RecordingController ctrl;
    EXPECT_EQ(former.stage(40, lines[0], 100), 0u);
    EXPECT_EQ(former.stage(12, lines[1], 250), 1u);
    EXPECT_EQ(former.stage(40, lines[2], 300), 2u);

    CtrlWriteResult results[kMaxWriteBatch];
    EXPECT_EQ(former.flush(ctrl, results, Reason::QueueFull), 3u);
    EXPECT_TRUE(former.empty());

    ASSERT_EQ(ctrl.batchSizes, std::vector<std::size_t>{ 3 });
    ASSERT_EQ(ctrl.calls.size(), 3u);
    const LineAddr addrs[] = { 40, 12, 40 };
    const Time nows[] = { 100, 250, 300 };
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(ctrl.calls[i].addr, addrs[i]) << "write " << i;
        EXPECT_EQ(ctrl.calls[i].data, lines[i]) << "write " << i;
        EXPECT_EQ(ctrl.calls[i].now, nows[i]) << "write " << i;
        EXPECT_EQ(results[i].latency, static_cast<Time>(i + 1))
            << "result " << i;
    }
}

TEST(BatchFormerTest, EmptyFlushTouchesNeitherControllerNorCounters)
{
    BatchFormer former;
    RecordingController ctrl;
    CtrlWriteResult results[kMaxWriteBatch];
    for (Reason reason : { Reason::Read, Reason::QueueFull,
                           Reason::BatchFull, Reason::TraceEnd })
        EXPECT_EQ(former.flush(ctrl, results, reason), 0u);
    EXPECT_TRUE(ctrl.batchSizes.empty());
    EXPECT_EQ(former.flushes(), 0u);
    EXPECT_EQ(former.writesStaged(), 0u);
}

TEST(BatchFormerTest, EachFlushCountsUnderItsOwnReason)
{
    BatchFormer former;
    RecordingController ctrl;
    CtrlWriteResult results[kMaxWriteBatch];
    const Line line;
    const Reason reasons[] = { Reason::Read,      Reason::Read,
                               Reason::QueueFull, Reason::BatchFull,
                               Reason::TraceEnd,  Reason::Read };
    for (Reason reason : reasons) {
        former.stage(1, line, 0);
        former.flush(ctrl, results, reason);
    }
    EXPECT_EQ(former.flushesOnRead(), 3u);
    EXPECT_EQ(former.flushesOnQueueFull(), 1u);
    EXPECT_EQ(former.flushesOnBatchFull(), 1u);
    EXPECT_EQ(former.flushesOnTraceEnd(), 1u);
    EXPECT_EQ(former.flushes(), 6u);
    EXPECT_EQ(former.writesStaged(), 6u);
}

TEST(BatchFormerTest, FullAtExactlyMaxWriteBatch)
{
    BatchFormer former;
    RecordingController ctrl;
    const Line line;
    for (std::size_t i = 0; i + 1 < kMaxWriteBatch; ++i)
        former.stage(i, line, 0);
    EXPECT_FALSE(former.full());
    former.stage(kMaxWriteBatch - 1, line, 0);
    EXPECT_TRUE(former.full());
    EXPECT_EQ(former.size(), kMaxWriteBatch);

    CtrlWriteResult results[kMaxWriteBatch];
    EXPECT_EQ(former.flush(ctrl, results, Reason::BatchFull),
              kMaxWriteBatch);
    EXPECT_FALSE(former.full());
    ASSERT_EQ(ctrl.calls.size(), kMaxWriteBatch);
    for (std::size_t i = 0; i < kMaxWriteBatch; ++i)
        EXPECT_EQ(ctrl.calls[i].addr, i);
}

TEST(BatchFormerTest, StagingCopiesTheLine)
{
    // The trace buffer a write came from may be overwritten before
    // the flush; the controller must see the data as staged.
    Rng rng(11);
    Line buffer = Line::random(rng);
    const Line staged = buffer;
    BatchFormer former;
    former.stage(5, buffer, 0);
    buffer = Line::random(rng);

    RecordingController ctrl;
    CtrlWriteResult results[kMaxWriteBatch];
    former.flush(ctrl, results, Reason::TraceEnd);
    ASSERT_EQ(ctrl.calls.size(), 1u);
    EXPECT_EQ(ctrl.calls[0].data, staged);
}

TEST(BatchFormerTest, SlotsStayReadableUntilRestaged)
{
    BatchFormer former;
    RecordingController ctrl;
    CtrlWriteResult results[kMaxWriteBatch];
    const Line line;
    former.stage(30, line, 1000);
    former.stage(31, line, 2000);
    former.flush(ctrl, results, Reason::Read);

    EXPECT_EQ(former.slotAddr(0), 30u);
    EXPECT_EQ(former.slotNow(0), 1000u);
    EXPECT_EQ(former.slotAddr(1), 31u);
    EXPECT_EQ(former.slotNow(1), 2000u);

    // The next batch reuses slot 0 but leaves slot 1 alone.
    EXPECT_EQ(former.stage(32, line, 3000), 0u);
    EXPECT_EQ(former.slotAddr(0), 32u);
    EXPECT_EQ(former.slotNow(0), 3000u);
    EXPECT_EQ(former.slotAddr(1), 31u);
}

TEST(BatchFormerTest, ResetDiscardsStagedWritesButKeepsCounters)
{
    BatchFormer former;
    RecordingController ctrl;
    CtrlWriteResult results[kMaxWriteBatch];
    const Line line;
    former.stage(1, line, 0);
    former.flush(ctrl, results, Reason::QueueFull);
    former.stage(2, line, 0);
    former.stage(3, line, 0);
    former.reset();

    EXPECT_TRUE(former.empty());
    EXPECT_EQ(former.flush(ctrl, results, Reason::TraceEnd), 0u);
    EXPECT_EQ(ctrl.calls.size(), 1u);
    EXPECT_EQ(former.writesStaged(), 3u);
    EXPECT_EQ(former.flushesOnQueueFull(), 1u);
    EXPECT_EQ(former.flushesOnTraceEnd(), 0u);
}

} // namespace
} // namespace dewrite
