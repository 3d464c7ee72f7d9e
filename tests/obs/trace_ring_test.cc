/**
 * @file
 * WriteTracer tests: ring wraparound, epoch aggregation, degenerate
 * capacities, and the exporters.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/json_writer.hh"
#include "obs/trace_export.hh"
#include "obs/trace_ring.hh"

namespace dewrite::obs {
namespace {

WriteEvent
makeEvent(LineAddr addr, bool duplicate, std::int8_t predicted = -1)
{
    WriteEvent ev;
    ev.issue = addr * 100;
    ev.done = addr * 100 + 50;
    ev.addr = addr;
    ev.duplicate = duplicate;
    ev.predictedDup = predicted;
    return ev;
}

TEST(WriteTracerTest, RetainsEventsOldestFirst)
{
    TraceConfig config;
    config.capacity = 8;
    WriteTracer tracer(config);
    for (LineAddr a = 0; a < 5; ++a)
        tracer.record(makeEvent(a, false));

    EXPECT_EQ(tracer.recorded(), 5u);
    EXPECT_EQ(tracer.size(), 5u);
    EXPECT_EQ(tracer.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(tracer.event(i).addr, i);
        EXPECT_EQ(tracer.event(i).seq, i); // Stamped in record order.
    }
}

TEST(WriteTracerTest, RingWrapsKeepingNewestEvents)
{
    TraceConfig config;
    config.capacity = 4;
    WriteTracer tracer(config);
    for (LineAddr a = 0; a < 10; ++a)
        tracer.record(makeEvent(a, false));

    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    // Oldest retained is event 6; newest is event 9.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tracer.event(i).addr, 6 + i);
}

TEST(WriteTracerTest, CapacityZeroCountsButRetainsNothing)
{
    TraceConfig config;
    config.capacity = 0;
    config.epochEvents = 2;
    WriteTracer tracer(config);
    for (LineAddr a = 0; a < 6; ++a)
        tracer.record(makeEvent(a, a % 2 == 0));

    EXPECT_EQ(tracer.recorded(), 6u);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 6u);
    // Epoch aggregation still works without a ring.
    ASSERT_EQ(tracer.epochs().size(), 3u);
    EXPECT_EQ(tracer.epochs()[0].duplicates, 1u);
}

TEST(WriteTracerTest, EpochsAggregateAndRoll)
{
    TraceConfig config;
    config.capacity = 64;
    config.epochEvents = 4;
    WriteTracer tracer(config);

    // Epoch 0: two duplicates, both predicted correctly.
    tracer.record(makeEvent(0, true, 1));
    tracer.record(makeEvent(1, true, 1));
    tracer.record(makeEvent(2, false, 1)); // Mispredicted.
    tracer.record(makeEvent(3, false, -1)); // No prediction.

    ASSERT_EQ(tracer.epochs().size(), 1u);
    const EpochSnapshot &epoch = tracer.epochs()[0];
    EXPECT_EQ(epoch.epoch, 0u);
    EXPECT_EQ(epoch.events, 4u);
    EXPECT_EQ(epoch.duplicates, 2u);
    EXPECT_EQ(epoch.predictions, 3u);
    EXPECT_EQ(epoch.correctPredictions, 2u);
    EXPECT_DOUBLE_EQ(epoch.writeReduction(), 0.5);
    EXPECT_DOUBLE_EQ(epoch.predictionAccuracy(), 2.0 / 3.0);

    // The next event starts epoch 1.
    tracer.record(makeEvent(4, false));
    EXPECT_EQ(tracer.currentEpoch().epoch, 1u);
    EXPECT_EQ(tracer.currentEpoch().events, 1u);
}

TEST(WriteTracerTest, EmptyEpochRatiosAreZero)
{
    const EpochSnapshot empty;
    EXPECT_EQ(empty.writeReduction(), 0.0);
    EXPECT_EQ(empty.predictionAccuracy(), 0.0);
}

TEST(WriteTracerDeathTest, OutOfRangeEventIndexPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    WriteTracer tracer;
    EXPECT_DEATH(tracer.event(0), "out of range");
}

// --- exporters -------------------------------------------------------

TEST(TraceExportTest, ChromeTraceHasRequiredShape)
{
    TraceConfig config;
    config.capacity = 16;
    WriteTracer tracer(config);
    tracer.record(makeEvent(1, true, 1));
    tracer.record(makeEvent(2, false, 0));

    std::string out;
    JsonWriter w(&out, /*pretty=*/false);
    writeChromeTrace(tracer, w, "app/scheme");
    EXPECT_TRUE(w.ok());
    EXPECT_EQ(w.depth(), 0u);

    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(out.find("app/scheme"), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"duplicate\":true"), std::string::npos);
}

TEST(TraceExportTest, EpochSeriesListsCompletedAndTailEpochs)
{
    TraceConfig config;
    config.capacity = 16;
    config.epochEvents = 2;
    WriteTracer tracer(config);
    tracer.record(makeEvent(0, true));
    tracer.record(makeEvent(1, false));
    tracer.record(makeEvent(2, true)); // Tail epoch, in progress.

    std::string out;
    JsonWriter w(&out, /*pretty=*/false);
    writeEpochSeries(tracer, w);
    EXPECT_TRUE(w.ok());
    EXPECT_EQ(w.depth(), 0u);
    EXPECT_EQ(out.front(), '[');
    EXPECT_NE(out.find("\"write_reduction\":0.5"), std::string::npos);
    // Both the completed epoch and the tail appear.
    EXPECT_NE(out.find("\"epoch\":0"), std::string::npos);
    EXPECT_NE(out.find("\"epoch\":1"), std::string::npos);
}

} // namespace
} // namespace dewrite::obs
