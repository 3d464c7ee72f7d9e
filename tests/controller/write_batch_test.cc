/**
 * @file
 * writeBatch() parity: a batched hand-off is exactly the serial
 * write() loop, for every scheme.
 *
 * The core's batch former hands its staged writes to
 * MemController::writeBatch(), which services them one write() at a
 * time in array order. This suite drives two identical Systems with
 * the same write stream — one through write(), one through
 * writeBatch() in groups of 1, 7, 8, 16 and kMaxWriteBatch — and
 * requires identical per-request results, statistics, traced write
 * events and read-back data.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "controller/mem_controller.hh"
#include "obs/trace_ring.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace dewrite {
namespace {

struct SchemeCase
{
    const char *name;
    SchemeOptions scheme;
    bool traced; //!< The scheme records one tracer event per write.
};

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 12;
    return config;
}

/**
 * A write stream with heavy content reuse (so DeWrite eliminates some
 * writes) over few enough addresses that lines are rewritten.
 */
struct WriteStream
{
    std::vector<Line> data;
    std::vector<CtrlWriteRequest> requests;
};

WriteStream
makeStream(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Line> pool;
    for (int i = 0; i < 8; ++i)
        pool.push_back(Line::random(rng));

    WriteStream stream;
    stream.data.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        stream.data.push_back(rng.next64() % 4 == 0
                                  ? Line::random(rng)
                                  : pool[rng.next64() % pool.size()]);
    }
    for (std::size_t i = 0; i < count; ++i) {
        stream.requests.push_back({ rng.next64() % 256, &stream.data[i],
                                    static_cast<Time>(i) * 50 *
                                        kNanoSecond });
    }
    return stream;
}

std::vector<CtrlWriteResult>
writeSerially(MemController &controller, const WriteStream &stream)
{
    std::vector<CtrlWriteResult> results;
    for (const CtrlWriteRequest &request : stream.requests)
        results.push_back(
            controller.write(request.addr, *request.data, request.now));
    return results;
}

std::vector<CtrlWriteResult>
writeInGroups(MemController &controller, const WriteStream &stream,
              std::size_t group)
{
    std::vector<CtrlWriteResult> results(stream.requests.size());
    for (std::size_t i = 0; i < stream.requests.size(); i += group) {
        const std::size_t count =
            std::min(group, stream.requests.size() - i);
        controller.writeBatch(stream.requests.data() + i,
                              results.data() + i, count);
    }
    return results;
}

void
expectSameResults(const std::vector<CtrlWriteResult> &serial,
                  const std::vector<CtrlWriteResult> &batched,
                  const std::string &where)
{
    ASSERT_EQ(serial.size(), batched.size()) << where;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].latency, batched[i].latency)
            << where << ", request " << i;
        EXPECT_EQ(serial[i].eliminated, batched[i].eliminated)
            << where << ", request " << i;
    }
}

/** Every line of the address range reads back alike from both. */
void
expectSameContents(System &serial, System &batched, const std::string &where)
{
    for (LineAddr addr = 0; addr < 256; ++addr) {
        const CtrlReadResult a = serial.controller().read(addr, 0);
        const CtrlReadResult b = batched.controller().read(addr, 0);
        EXPECT_EQ(a.valid, b.valid) << where << ", line " << addr;
        EXPECT_EQ(a.data, b.data) << where << ", line " << addr;
    }
}

StatSet
statsOf(const System &system)
{
    StatSet stats;
    system.controller().fillStats(stats);
    return stats;
}

// Names the case in gtest's failure output instead of a byte dump.
void
PrintTo(const SchemeCase &scheme_case, std::ostream *os)
{
    *os << scheme_case.name;
}

class WriteBatchParity : public testing::TestWithParam<SchemeCase>
{
};

TEST_P(WriteBatchParity, MatchesSerialWritesAtEveryGroupSize)
{
    const WriteStream stream = makeStream(600, 29);
    System serial(smallConfig(), GetParam().scheme);
    const std::vector<CtrlWriteResult> reference =
        writeSerially(serial.controller(), stream);
    const StatSet reference_stats = statsOf(serial);

    for (std::size_t group : { std::size_t{ 1 }, std::size_t{ 7 },
                               std::size_t{ 8 }, std::size_t{ 16 },
                               kMaxWriteBatch }) {
        const std::string where = "group " + std::to_string(group);
        System batched(smallConfig(), GetParam().scheme);
        expectSameResults(reference,
                          writeInGroups(batched.controller(), stream, group),
                          where);
        EXPECT_EQ(statsOf(batched).all(), reference_stats.all()) << where;
    }
}

TEST_P(WriteBatchParity, LaterRequestForTheSameLineWins)
{
    // One full batch rewriting three lines over and over: each line
    // must end up holding the data of its last request in array order.
    Rng rng(53);
    std::vector<Line> data(kMaxWriteBatch);
    std::vector<CtrlWriteRequest> requests(kMaxWriteBatch);
    std::size_t last[3] = {};
    for (std::size_t i = 0; i < kMaxWriteBatch; ++i) {
        data[i] = Line::random(rng);
        requests[i] = { i % 3, &data[i],
                        static_cast<Time>(i) * 20 * kNanoSecond };
        last[i % 3] = i;
    }
    System system(smallConfig(), GetParam().scheme);
    std::vector<CtrlWriteResult> results(kMaxWriteBatch);
    system.controller().writeBatch(requests.data(), results.data(),
                                   kMaxWriteBatch);

    EXPECT_EQ(system.controller().writeRequests(), kMaxWriteBatch);
    for (LineAddr addr = 0; addr < 3; ++addr) {
        const CtrlReadResult read = system.controller().read(addr, 0);
        EXPECT_TRUE(read.valid) << "line " << addr;
        EXPECT_EQ(read.data, data[last[addr]])
            << "line " << addr;
    }
}

TEST_P(WriteBatchParity, TracesTheSameEventsAsSerialWrites)
{
    const WriteStream stream = makeStream(300, 71);
    System serial(smallConfig(), GetParam().scheme);
    System batched(smallConfig(), GetParam().scheme);
    const obs::WriteTracer &serial_trace = serial.enableTracing();
    const obs::WriteTracer &batched_trace = batched.enableTracing();

    expectSameResults(writeSerially(serial.controller(), stream),
                      writeInGroups(batched.controller(), stream, 16),
                      "group 16");

    const std::uint64_t expected = GetParam().traced ? 300u : 0u;
    EXPECT_EQ(serial_trace.recorded(), expected);
    ASSERT_EQ(batched_trace.recorded(), expected);
    for (std::size_t i = 0; i < batched_trace.size(); ++i) {
        const obs::WriteEvent &a = serial_trace.event(i);
        const obs::WriteEvent &b = batched_trace.event(i);
        EXPECT_EQ(a.seq, b.seq) << "event " << i;
        EXPECT_EQ(a.addr, b.addr) << "event " << i;
        EXPECT_EQ(a.issue, b.issue) << "event " << i;
        EXPECT_EQ(a.done, b.done) << "event " << i;
        EXPECT_EQ(a.hash, b.hash) << "event " << i;
        EXPECT_EQ(a.duplicate, b.duplicate) << "event " << i;
        EXPECT_EQ(a.wroteLine, b.wroteLine) << "event " << i;
    }
    expectSameContents(serial, batched, "group 16");
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, WriteBatchParity,
    testing::Values(
        SchemeCase{ "plain", plainScheme(), false },
        SchemeCase{ "secure_baseline", secureBaselineScheme(), true },
        SchemeCase{ "dewrite_direct", dewriteScheme(DedupMode::Direct),
                    true },
        SchemeCase{ "dewrite_parallel",
                    dewriteScheme(DedupMode::Parallel), true },
        SchemeCase{ "dewrite_predicted",
                    dewriteScheme(DedupMode::Predicted), true }),
    [](const testing::TestParamInfo<SchemeCase> &param_info) {
        return std::string(param_info.param.name);
    });

} // namespace
} // namespace dewrite
