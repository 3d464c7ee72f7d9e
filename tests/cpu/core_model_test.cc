/**
 * @file
 * CoreModel tests: single-core stalls, persist write queues, and
 * multi-core interleaving — exercised against a stub controller with
 * fixed latencies so every cycle count is predictable — plus the push
 * mode, which must be bit-identical to the pull path over the same
 * events however the feed is chunked: the property that makes the
 * service's round-based ingest invisible to the simulation.
 */

#include "cpu/core_model.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "controller/mem_controller.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/app_catalog.hh"
#include "trace/trace.hh"
#include "trace/trace_gen.hh"

namespace dewrite {
namespace {

/** Fixed-latency controller that records issue times. */
class StubController : public MemController
{
  public:
    StubController(Time write_latency, Time read_latency)
        : writeLatency_(write_latency), readLatency_(read_latency)
    {
    }

    CtrlWriteResult
    write(LineAddr addr, const Line &, Time now) override
    {
        writeIssues.push_back({ addr, now });
        noteWrite(writeLatency_, false, kLineBits);
        return { writeLatency_, false };
    }

    CtrlReadResult
    read(LineAddr addr, Time now) override
    {
        readIssues.push_back({ addr, now });
        noteRead(readLatency_);
        CtrlReadResult result;
        result.latency = readLatency_;
        result.valid = true;
        return result;
    }

    std::string name() const override { return "stub"; }
    Energy controllerEnergy() const override { return 0; }

    std::vector<std::pair<LineAddr, Time>> writeIssues;
    std::vector<std::pair<LineAddr, Time>> readIssues;

  private:
    Time writeLatency_;
    Time readLatency_;
};

/** Fixed event script. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<MemEvent> events)
        : events_(std::move(events))
    {
    }

    bool
    next(MemEvent &event) override
    {
        if (position_ >= events_.size())
            return false;
        event = events_[position_++];
        return true;
    }

  private:
    std::vector<MemEvent> events_;
    std::size_t position_ = 0;
};

MemEvent
write(LineAddr addr, std::uint64_t gap)
{
    MemEvent event;
    event.isWrite = true;
    event.addr = addr;
    event.instGap = gap;
    return event;
}

MemEvent
read(LineAddr addr, std::uint64_t gap)
{
    MemEvent event;
    event.addr = addr;
    event.instGap = gap;
    return event;
}

TEST(CoreModelTest, ReadsBlockTheCore)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    // Two reads with 10-instruction gaps: the second issues only after
    // the first returns.
    ScriptedTrace trace({ read(1, 10), read(2, 10) });
    const RunResult result = core.run(trace, ctrl, 100);

    ASSERT_EQ(ctrl.readIssues.size(), 2u);
    // Each event costs its gap plus one issue cycle.
    EXPECT_EQ(ctrl.readIssues[0].second, timing.cycles(11));
    EXPECT_EQ(ctrl.readIssues[1].second,
              timing.cycles(11) + 100 * kNanoSecond + timing.cycles(11));
    EXPECT_EQ(result.reads, 2u);
    EXPECT_EQ(result.instructions, 22u);
}

TEST(CoreModelTest, StoreQueueOverlapsWrites)
{
    TimingConfig timing;
    timing.storeQueueDepth = 4;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    // Three back-to-back writes fit in the queue: each issues after
    // only its compute gap, not after the previous write completes.
    ScriptedTrace trace({ write(1, 10), write(2, 10), write(3, 10) });
    core.run(trace, ctrl, 100);

    ASSERT_EQ(ctrl.writeIssues.size(), 3u);
    EXPECT_EQ(ctrl.writeIssues[1].second - ctrl.writeIssues[0].second,
              timing.cycles(11));
    EXPECT_EQ(ctrl.writeIssues[2].second - ctrl.writeIssues[1].second,
              timing.cycles(11));
}

TEST(CoreModelTest, FullStoreQueueStalls)
{
    TimingConfig timing;
    timing.storeQueueDepth = 1; // Strict flush-per-store discipline.
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace({ write(1, 10), write(2, 10) });
    core.run(trace, ctrl, 100);

    // The second write waits out the first's full latency.
    EXPECT_EQ(ctrl.writeIssues[1].second - ctrl.writeIssues[0].second,
              300 * kNanoSecond + timing.cycles(11));
}

TEST(CoreModelTest, MultiCoreInterleavesByTime)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    // Core 0's events sit at gaps 10 and 1000; core 1's at gap 100:
    // global issue order must be 0, 1, 0.
    ScriptedTrace trace_a({ read(10, 10), read(11, 2000) });
    ScriptedTrace trace_b({ read(20, 500) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    const RunResult result = core.runMulti(traces, ctrl, 100);

    ASSERT_EQ(ctrl.readIssues.size(), 3u);
    EXPECT_EQ(ctrl.readIssues[0].first, 10u);
    EXPECT_EQ(ctrl.readIssues[1].first, 20u);
    EXPECT_EQ(ctrl.readIssues[2].first, 11u);
    EXPECT_EQ(result.events, 3u);
}

TEST(CoreModelTest, MultiCoreCyclesAreSlowestCore)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace_a({ read(1, 10) });
    ScriptedTrace trace_b({ read(2, 10000) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    const RunResult result = core.runMulti(traces, ctrl, 100);

    // Slowest core: 10000 cycles of compute, one issue cycle, and
    // the read stall.
    EXPECT_EQ(result.cycles,
              10001 + (100 * kNanoSecond) / timing.cyclePeriod);
}

TEST(CoreModelTest, MaxEventsBoundsTotalAcrossCores)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);

    ScriptedTrace trace_a({ read(1, 1), read(2, 1), read(3, 1) });
    ScriptedTrace trace_b({ read(4, 1), read(5, 1), read(6, 1) });
    std::vector<TraceSource *> traces{ &trace_a, &trace_b };
    const RunResult result = core.runMulti(traces, ctrl, 4);
    EXPECT_EQ(result.events, 4u);
}

TEST(CoreModelTest, ExhaustedTraceEndsRun)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);
    ScriptedTrace trace({ read(1, 1) });
    const RunResult result = core.run(trace, ctrl, 1000);
    EXPECT_EQ(result.events, 1u);
}

TEST(CoreModelTest, IpcNeverExceedsOnePerCore)
{
    TimingConfig timing;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);
    std::vector<MemEvent> events;
    for (int i = 0; i < 50; ++i)
        events.push_back(write(i, 100));
    ScriptedTrace trace(events);
    const RunResult result = core.run(trace, ctrl, 1000);
    EXPECT_LE(result.ipc, 1.0);
    EXPECT_GT(result.ipc, 0.0);
}

TEST(CoreModelTest, WritesFlushAloneOnceTheQueueFills)
{
    // A queue entry leaves only when the queue is full, so after the
    // first depth-1 writes every write fills the queue again: the
    // first flush carries 4 writes and every later one carries 1.
    TimingConfig timing;
    timing.storeQueueDepth = 4;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);
    constexpr std::size_t kWrites = 50;
    std::vector<MemEvent> events;
    for (std::size_t i = 0; i < kWrites; ++i)
        events.push_back(write(i, 10));
    ScriptedTrace trace(events);
    core.run(trace, ctrl, 1000);

    const BatchFormer &former = core.former();
    EXPECT_EQ(former.writesStaged(), kWrites);
    EXPECT_EQ(former.flushesOnQueueFull(), kWrites - 3);
    EXPECT_EQ(former.flushes(), former.flushesOnQueueFull());
}

/** Batch-full flushes of a write-only run of @p cores x @p depth. */
std::uint64_t
batchFullFlushes(std::size_t cores, unsigned depth)
{
    TimingConfig timing;
    timing.storeQueueDepth = depth;
    CoreModel core(timing);
    StubController ctrl(300 * kNanoSecond, 100 * kNanoSecond);
    std::vector<std::vector<MemEvent>> scripts(cores);
    std::vector<std::unique_ptr<ScriptedTrace>> traces;
    std::vector<TraceSource *> sources;
    for (std::size_t c = 0; c < cores; ++c) {
        for (LineAddr i = 0; i < 200; ++i)
            scripts[c].push_back(write(c * 1000 + i, 10));
        traces.push_back(std::make_unique<ScriptedTrace>(scripts[c]));
        sources.push_back(traces.back().get());
    }
    const RunResult result = core.runMulti(sources, ctrl, 200 * cores);
    EXPECT_EQ(core.former().writesStaged(), result.writes);
    return core.former().flushesOnBatchFull();
}

TEST(CoreModelTest, SingleCoreBatchFullFiresOnlyAtTheCap)
{
    // The first flush of a write-only core carries depth writes and
    // every later one carries 1, so only a first batch of
    // kMaxWriteBatch writes ever fills the former.
    EXPECT_EQ(batchFullFlushes(1, kMaxWriteBatch - 1), 0u);
    EXPECT_EQ(batchFullFlushes(1, kMaxWriteBatch), 1u);
    EXPECT_EQ(batchFullFlushes(1, kMaxWriteBatch + 30), 1u);
}

TEST(CoreModelTest, MultiCoreBatchFullNeedsFirstFlushPastTheCap)
{
    // Lockstep cores all reach depth-1 queued writes before one fills
    // its queue, so the first flush carries cores*(depth-1)+1 writes:
    // 4*(16-1)+1 = 61 stays under the cap, 4*(17-1)+1 = 65 does not.
    EXPECT_EQ(batchFullFlushes(4, 16), 0u);
    EXPECT_GT(batchFullFlushes(4, 17), 0u);
}

/**
 * Controller whose k-th write takes a distinct latency and is
 * eliminated on every odd call; it records each request's issue time
 * and response, and which cores each writeBatch() hand-off carried.
 * Addresses encode their core as addr / kCoreStride.
 */
class VaryingController : public MemController
{
  public:
    static constexpr LineAddr kCoreStride = 100000;
    static constexpr Time kReadLatency = 90 * kNanoSecond;

    struct Issue
    {
        Time now = 0;
        Time latency = 0;
    };

    CtrlWriteResult
    write(LineAddr addr, const Line &, Time now) override
    {
        const CtrlWriteResult result{ (200 + 13 * writes.size()) *
                                          kNanoSecond,
                                      writes.size() % 2 == 1 };
        writes[addr] = { now, result.latency };
        eliminated += result.eliminated;
        noteWrite(result.latency, result.eliminated, kLineBits);
        return result;
    }

    void
    writeBatch(const CtrlWriteRequest *requests, CtrlWriteResult *results,
               std::size_t count) override
    {
        unsigned cores = 0; // Bit c: the batch holds a core-c write.
        for (std::size_t i = 0; i < count; ++i)
            cores |= 1u << (requests[i].addr / kCoreStride);
        multiCoreBatches += std::popcount(cores) > 1;
        MemController::writeBatch(requests, results, count);
    }

    CtrlReadResult
    read(LineAddr addr, Time now) override
    {
        reads[addr] = { now, kReadLatency };
        noteRead(kReadLatency);
        CtrlReadResult result;
        result.latency = kReadLatency;
        result.valid = true;
        return result;
    }

    std::string name() const override { return "varying"; }
    Energy controllerEnergy() const override { return 0; }

    std::map<LineAddr, Issue> writes;
    std::map<LineAddr, Issue> reads;
    std::uint64_t eliminated = 0;
    std::uint64_t multiCoreBatches = 0;
};

TEST(CoreModelTest, FlushResolvesEachQueuedWriteToItsOwnResponse)
{
    // Four cores with deep queues: a lockstep write-only prologue of
    // 4*16 writes fills one batch to kMaxWriteBatch, then mixed traffic
    // forces read flushes that carry several cores' writes until the
    // queues fill and every write is flushed alone. Each
    // core is replayed here as a plain FIFO of its own writes'
    // completions (issue time + the latency the controller returned
    // for that write), so a flush that credits a response to the wrong
    // queue entry shifts some core's issue times.
    constexpr std::size_t kCores = 4;
    TimingConfig timing;
    timing.storeQueueDepth = 40;
    CoreModel core(timing);
    VaryingController ctrl;

    std::vector<std::vector<MemEvent>> scripts(kCores);
    for (std::size_t c = 0; c < kCores; ++c) {
        const LineAddr base = c * VaryingController::kCoreStride;
        LineAddr next = base;
        for (int i = 0; i < 16; ++i)
            scripts[c].push_back(write(next++, 10));
        for (std::uint64_t i = 0; i < 150; ++i) {
            const std::uint64_t gap = (i * 31 + c * 17) % 50;
            scripts[c].push_back((i + c) % 7 == 0 ? read(next++, gap)
                                                  : write(next++, gap));
        }
        scripts[c].push_back(read(next++, 5));
    }
    std::vector<std::unique_ptr<ScriptedTrace>> traces;
    std::vector<TraceSource *> sources;
    for (const std::vector<MemEvent> &script : scripts) {
        traces.push_back(std::make_unique<ScriptedTrace>(script));
        sources.push_back(traces.back().get());
    }
    const RunResult result = core.runMulti(sources, ctrl, 100000);

    const BatchFormer &former = core.former();
    ASSERT_GT(former.flushesOnBatchFull(), 0u);
    ASSERT_GT(former.flushesOnRead(), 0u);
    ASSERT_GT(former.flushesOnQueueFull(), 0u);
    ASSERT_GT(ctrl.multiCoreBatches, 0u);

    Time slowest = 0;
    for (std::size_t c = 0; c < kCores; ++c) {
        Time now = 0;
        Time stall = 0;
        std::deque<Time> queue;
        for (const MemEvent &event : scripts[c]) {
            now += timing.cycles(event.instGap + 1);
            if (!event.isWrite) {
                ASSERT_EQ(ctrl.reads.count(event.addr), 1u);
                EXPECT_EQ(ctrl.reads[event.addr].now, now)
                    << "core " << c << " read " << event.addr;
                now += VaryingController::kReadLatency;
                continue;
            }
            ASSERT_EQ(ctrl.writes.count(event.addr), 1u);
            const VaryingController::Issue &issue =
                ctrl.writes[event.addr];
            EXPECT_EQ(issue.now, now)
                << "core " << c << " write " << event.addr;
            queue.push_back(now + issue.latency);
            if (queue.size() == timing.storeQueueDepth) {
                stall += std::max(now, queue.front()) - now;
                now = std::max(now, queue.front());
                queue.pop_front();
            }
        }
        EXPECT_GT(stall, 0u) << "core " << c << " never stalled";
        slowest = std::max(slowest, now);
    }
    EXPECT_EQ(result.cycles, slowest / timing.cyclePeriod);
    EXPECT_EQ(result.writes, ctrl.writes.size());
    EXPECT_EQ(result.writesEliminated, ctrl.eliminated);
    EXPECT_EQ(result.writesEliminated, ctrl.writes.size() / 2);
}

// --- push mode -------------------------------------------------------

/** Replays a recorded event vector as a TraceSource. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(const std::vector<MemEvent> &events)
        : events_(events)
    {
    }

    bool
    next(MemEvent &event) override
    {
        if (pos_ >= events_.size())
            return false;
        event = events_[pos_++];
        return true;
    }

  private:
    const std::vector<MemEvent> &events_;
    std::size_t pos_ = 0;
};

std::vector<MemEvent>
recordEvents(std::size_t count)
{
    AppProfile profile = appCatalog()[3];
    profile.workingSetLines = 2048;
    SyntheticWorkload workload(profile, appSeed(profile));
    std::vector<MemEvent> events(count);
    for (MemEvent &event : events)
        EXPECT_TRUE(workload.next(event));
    return events;
}

SystemConfig
smallConfig(unsigned store_queue_depth = TimingConfig().storeQueueDepth)
{
    SystemConfig config;
    config.memory.numLines = 4096;
    config.timing.storeQueueDepth = store_queue_depth;
    return config;
}

std::string
signature(const System &system, const RunResult &run)
{
    ExperimentResult cell;
    cell.app = "chunk";
    cell.scheme = system.controller().name();
    cell.run = run;
    system.controller().fillStats(cell.stats);
    return resultSignature(cell);
}

/** Signature of a System run over @p events via the pull path. */
std::string
pullSignature(const std::vector<MemEvent> &events,
              const SchemeOptions &scheme, const SystemConfig &config)
{
    System system(config, scheme);
    VectorTrace trace(events);
    const RunResult run = system.run(trace, events.size());
    return signature(system, run);
}

/** Signature of a push-mode core fed @p events in @p chunk pieces. */
std::string
pushSignature(const std::vector<MemEvent> &events, std::size_t chunk,
              const SchemeOptions &scheme, const SystemConfig &config)
{
    System system(config, scheme);
    CoreModel core(system.config().timing);
    core.attach(system.controller());
    for (std::size_t i = 0; i < events.size(); i += chunk)
        core.feed(events.data() + i,
                  std::min(chunk, events.size() - i));
    RunResult run = core.finish();
    system.completeRun(run);
    return signature(system, run);
}

TEST(CoreModelPushTest, MatchesPullPathWhateverTheChunking)
{
    const std::vector<MemEvent> events = recordEvents(4000);
    const SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    const std::string reference =
        pullSignature(events, scheme, smallConfig());
    // 1 = event-at-a-time; 7 straddles every batch boundary; 4096 is
    // one service round; 5000 = a single feed of everything.
    for (std::size_t chunk : { 1u, 7u, 256u, 4096u, 5000u })
        EXPECT_EQ(pushSignature(events, chunk, scheme, smallConfig()),
                  reference)
            << "chunk size " << chunk;
}

TEST(CoreModelPushTest, MatchesPullPathForSecureBaseline)
{
    const std::vector<MemEvent> events = recordEvents(2000);
    const SchemeOptions scheme = secureBaselineScheme();
    EXPECT_EQ(pushSignature(events, 100, scheme, smallConfig()),
              pullSignature(events, scheme, smallConfig()));
}

TEST(CoreModelPushTest, MatchesRunMultiAtEveryStoreQueueDepth)
{
    // Depth 1 empties the ring on every write; 4 and 8 wrap it many
    // times over a few thousand writes.
    const std::vector<MemEvent> events = recordEvents(3000);
    const SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    for (unsigned depth : { 1u, 4u, 8u }) {
        const SystemConfig config = smallConfig(depth);
        EXPECT_EQ(pushSignature(events, 64, scheme, config),
                  pullSignature(events, scheme, config))
            << "store queue depth " << depth;
    }
}

TEST(CoreModelPushTest, EveryStagedWriteLeavesThroughOneFlush)
{
    const std::vector<MemEvent> events = recordEvents(2000);
    System system(smallConfig(), dewriteScheme(DedupMode::Predicted));
    CoreModel core(system.config().timing);
    core.attach(system.controller());
    core.feed(events.data(), events.size());
    const RunResult run = core.finish();
    const BatchFormer &former = core.former();

    EXPECT_EQ(run.events, events.size());
    EXPECT_EQ(former.writesStaged(), run.writes);
    // The controller saw each staged write exactly once.
    EXPECT_EQ(system.controller().writeRequests(), run.writes);
    // A mixed read/write stream must see both read-forced flushes and
    // the trace-end drain (the tail of the last feed), and every flush
    // is attributed to exactly one reason.
    EXPECT_GT(former.flushesOnRead(), 0u);
    EXPECT_LE(former.flushesOnTraceEnd(), 1u);
    EXPECT_EQ(former.flushes(),
              former.flushesOnRead() + former.flushesOnQueueFull() +
                  former.flushesOnBatchFull() +
                  former.flushesOnTraceEnd());
}

} // namespace
} // namespace dewrite
