/**
 * @file
 * Layer-tracing wrappers.
 */

#include "traced.hh"

#include "obs/stage_profile.hh"

namespace perfbench {

using namespace dewrite;

std::uint64_t
ticks()
{
    return obs::stageClock();
}

bool
TimedSource::next(MemEvent &event)
{
    const std::uint64_t start = ticks();
    const bool more = inner_.next(event);
    sink_ += ticks() - start;
    return more;
}

CtrlWriteResult
TracedController::write(LineAddr addr, const Line &data, Time now)
{
    const std::uint64_t bits = inner_.dataBitsProgrammed();
    const std::uint64_t start = ticks();
    const CtrlWriteResult result = inner_.write(addr, data, now);
    writeTicks += ticks() - start;
    ++writeCalls;
    noteWrite(result.latency, result.eliminated,
              inner_.dataBitsProgrammed() - bits);
    return result;
}

void
TracedController::writeBatch(const CtrlWriteRequest *requests,
                             CtrlWriteResult *results, std::size_t count)
{
    const std::uint64_t bits = inner_.dataBitsProgrammed();
    const std::uint64_t start = ticks();
    inner_.writeBatch(requests, results, count);
    writeTicks += ticks() - start;
    ++writeCalls;
    // Per-write bit counts are not visible through the batch call; the
    // batch total lands on its last member so the sum is exact.
    const std::uint64_t batch_bits = inner_.dataBitsProgrammed() - bits;
    for (std::size_t i = 0; i < count; ++i) {
        noteWrite(results[i].latency, results[i].eliminated,
                  i + 1 == count ? batch_bits : 0);
    }
}

CtrlReadResult
TracedController::read(LineAddr addr, Time now)
{
    const std::uint64_t start = ticks();
    CtrlReadResult result = inner_.read(addr, now);
    readTicks += ticks() - start;
    ++readCalls;
    noteRead(result.latency);
    return result;
}

CtrlReadResult
TracedController::readTiming(LineAddr addr, Time now)
{
    const std::uint64_t start = ticks();
    CtrlReadResult result = inner_.readTiming(addr, now);
    readTicks += ticks() - start;
    ++readCalls;
    noteRead(result.latency);
    return result;
}

} // namespace perfbench
