/**
 * @file
 * CoreModel implementation.
 */

#include "cpu/core_model.hh"

#include <algorithm>

#include "controller/mem_controller.hh"
#include "obs/telemetry.hh"
#include "trace/trace.hh"

namespace dewrite {

CoreModel::CoreModel(const TimingConfig &timing)
    : timing_(timing), depth_(std::max(1u, timing.storeQueueDepth))
{
}

RunResult
CoreModel::run(TraceSource &trace, MemController &controller,
               std::uint64_t max_events)
{
    std::vector<TraceSource *> traces{ &trace };
    return runMulti(traces, controller, max_events);
}

void
CoreModel::registerMetrics(obs::MetricRegistry::Scope scope) const
{
    former_.registerMetrics(scope.scope("batch"));
}

void
CoreModel::restart(MemController &controller, std::size_t cores)
{
    controller_ = &controller;
    former_.reset();
    totals_ = RunResult();
    cores_.assign(cores, CoreState());
    for (CoreState &core : cores_)
        core.queue.resize(depth_);
}

void
CoreModel::attach(MemController &controller)
{
    restart(controller, 1);
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
void
CoreModel::flush(BatchFormer::FlushReason reason)
{
    const std::size_t flushed =
        former_.flush(*controller_, responses_.data(), reason);
    if (flushed == 0)
        return;
    if (telemetry_) {
        // Slot data stays readable after flush() (BatchFormer
        // contract), so attribute each response to its address here.
        Time first_issue = former_.slotNow(0);
        Time last_commit = 0;
        for (std::size_t s = 0; s < flushed; ++s) {
            const Time staged = former_.slotNow(s);
            const Time commit = staged + responses_[s].latency;
            telemetry_->recordWrite(former_.slotAddr(s),
                                    responses_[s].latency,
                                    responses_[s].eliminated);
            first_issue = std::min(first_issue, staged);
            last_commit = std::max(last_commit, commit);
        }
        telemetry_->recordBatchCommit(last_commit - first_issue);
    }
    for (std::size_t s = 0; s < flushed; ++s) {
        if (responses_[s].eliminated)
            ++totals_.writesEliminated;
        *staged_[s] = former_.slotNow(s) + responses_[s].latency;
    }
}

void
CoreModel::issue(CoreState &core, const MemEvent &event)
{
    // The +1 cycle per event is the memory instruction's own issue
    // slot, so IPC can reach but not exceed one per core.
    core.now += timing_.cycles(event.instGap + 1);
    totals_.instructions += event.instGap + 1;
    ++totals_.events;

    if (event.isWrite) {
        // Stage the write; its completion resolves at flush. The
        // write drains from the persist queue; the core stalls only
        // when the queue is at capacity (ordering is kept by queue
        // FIFO order plus per-bank serialization).
        std::size_t tail = core.head + core.inFlight;
        if (tail >= depth_)
            tail -= depth_;
        const std::size_t slot =
            former_.stage(event.addr, event.data, core.now);
        staged_[slot] = &core.queue[tail];
        ++core.inFlight;
        ++totals_.writes;

        if (former_.full()) {
            flush(BatchFormer::FlushReason::BatchFull);
        } else if (core.inFlight == depth_) {
            flush(BatchFormer::FlushReason::QueueFull);
        }
        if (core.inFlight == depth_) {
            // Full queue: the core waits for the oldest write.
            core.now = std::max(core.now, core.queue[core.head]);
            core.head = core.head + 1 == depth_ ? 0 : core.head + 1;
            --core.inFlight;
        }
    } else {
        // The controller must observe every staged write first.
        flush(BatchFormer::FlushReason::Read);
        // The core consumes only the latency, so readTiming lets the
        // scheme skip materializing the decrypted line.
        const CtrlReadResult read =
            controller_->readTiming(event.addr, core.now);
        if (telemetry_)
            telemetry_->recordRead(event.addr, read.latency);
        // Loads block the in-order core until the data returns;
        // persist ordering constrains stores only, so the queue keeps
        // draining underneath.
        core.now += read.latency;
        ++totals_.reads;
    }
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
void
CoreModel::feed(const MemEvent *events, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        issue(cores_[0], events[i]);
}

// dewrite-analyze: root(shard-isolation)
// dewrite-analyze: root(determinism)
RunResult
CoreModel::finish()
{
    flush(BatchFormer::FlushReason::TraceEnd);

    RunResult result = totals_;
    Time slowest = 0;
    for (const CoreState &core : cores_)
        slowest = std::max(slowest, core.now);
    result.cycles = slowest / timing_.cyclePeriod;
    result.ipc = result.cycles
        ? static_cast<double>(result.instructions) / result.cycles
        : 0.0;
    result.avgWriteLatencyNs =
        controller_->avgWriteLatency() / kNanoSecond;
    result.avgReadLatencyNs = controller_->avgReadLatency() / kNanoSecond;
    return result;
}

RunResult
CoreModel::runMulti(const std::vector<TraceSource *> &traces,
                    MemController &controller, std::uint64_t max_events)
{
    // A write's controller latency feeds back into core scheduling
    // only when the store queue drains, so writes are staged and
    // handed to the controller together at the next read, full queue
    // or full batch. Once a core's queue has filled, every write
    // fills it again and is flushed alone (DESIGN.md §5f).
    restart(controller, traces.size());

    /** A core's next event, pulled ahead of its issue. */
    struct Pending
    {
        MemEvent event;
        Time issueAt = 0; //!< Core clock + the event's compute phase.
        bool alive = false;
    };
    std::vector<Pending> pending(traces.size());
    for (std::size_t c = 0; c < traces.size(); ++c) {
        pending[c].alive = traces[c]->next(pending[c].event);
        pending[c].issueAt =
            timing_.cycles(pending[c].event.instGap + 1);
    }

    for (std::uint64_t issued = 0; issued < max_events; ++issued) {
        // Issue the globally earliest pending event.
        std::size_t c = traces.size();
        for (std::size_t candidate = 0; candidate < traces.size();
             ++candidate) {
            if (pending[candidate].alive &&
                (c == traces.size() ||
                 pending[candidate].issueAt < pending[c].issueAt)) {
                c = candidate;
            }
        }
        if (c == traces.size())
            break; // All traces exhausted.

        CoreState &core = cores_[c];
        issue(core, pending[c].event);
        pending[c].alive = traces[c]->next(pending[c].event);
        pending[c].issueAt =
            core.now + timing_.cycles(pending[c].event.instGap + 1);
    }
    return finish();
}

} // namespace dewrite
