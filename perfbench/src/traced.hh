/**
 * @file
 * Outside-in layer tracing: wrappers around the simulator's public
 * TraceSource and MemController interfaces that time every call into
 * them from the benchmark's own code. The simulator is not modified;
 * a traced cell drives its own CoreModel through these wrappers.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>

#include "controller/mem_controller.hh"
#include "trace/trace.hh"

namespace perfbench {

/** Host cycle counter for spans (TSC; converted to seconds by the
 * caller against steady_clock over the whole traced phase). */
std::uint64_t ticks();

/** Times every TraceSource::next of @p inner into @p sink. */
class TimedSource final : public dewrite::TraceSource
{
  public:
    TimedSource(dewrite::TraceSource &inner, std::uint64_t &sink)
        : inner_(inner), sink_(sink)
    {
    }

    bool next(dewrite::MemEvent &event) override;

  private:
    dewrite::TraceSource &inner_;
    std::uint64_t &sink_;
};

/**
 * Forwards every request to @p inner, timing writeBatch/write and
 * readTiming/read. It mirrors the request accounting (noteWrite /
 * noteRead) because CoreModel reads avgWriteLatency() and
 * avgReadLatency() from the controller it is handed: the same values
 * added in the same order give bit-identical means.
 */
class TracedController final : public dewrite::MemController
{
  public:
    explicit TracedController(dewrite::MemController &inner)
        : inner_(inner)
    {
    }

    dewrite::CtrlWriteResult write(dewrite::LineAddr addr,
                                   const dewrite::Line &data,
                                   dewrite::Time now) override;
    void writeBatch(const dewrite::CtrlWriteRequest *requests,
                    dewrite::CtrlWriteResult *results,
                    std::size_t count) override;
    dewrite::CtrlReadResult read(dewrite::LineAddr addr,
                                 dewrite::Time now) override;
    dewrite::CtrlReadResult readTiming(dewrite::LineAddr addr,
                                       dewrite::Time now) override;
    std::string name() const override { return inner_.name(); }
    dewrite::Energy controllerEnergy() const override
    {
        return inner_.controllerEnergy();
    }

    std::uint64_t writeTicks = 0;
    std::uint64_t readTicks = 0;
    std::uint64_t writeCalls = 0;
    std::uint64_t readCalls = 0;

  private:
    dewrite::MemController &inner_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
