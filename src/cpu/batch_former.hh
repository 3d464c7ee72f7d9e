/**
 * @file
 * The write-batch former shared by every trace-driven core loop.
 *
 * A former stages consecutive store-queue writes and hands them to
 * MemController::writeBatch() as one group, which the controller
 * services one write() at a time in stage order. It owns the staging
 * slots (fixed capacity kMaxWriteBatch, no allocation after
 * construction) and the flush-reason accounting:
 * every non-empty flush is attributed to the event that forced it
 * (a read that must observe the staged writes, a full store queue, a
 * full batch, or the end of the trace), so the registry exposes *why*
 * batches break up, not just cycle totals.
 *
 * Each CoreModel owns one former, shared by its pull loop (runMulti,
 * the experiment path) and its push mode (feed/finish, the service's
 * per-shard loop) through one flush.
 */

#ifndef DEWRITE_CPU_BATCH_FORMER_HH
#define DEWRITE_CPU_BATCH_FORMER_HH

#include <array>
#include <cstddef>

#include "common/stats.hh"
#include "common/types.hh"
#include "controller/mem_controller.hh"
#include "obs/metric_registry.hh"

namespace dewrite {

class BatchFormer
{
  public:
    /** What event forced a (non-empty) flush. */
    enum class FlushReason
    {
        Read,      //!< A read must observe every staged write first.
        QueueFull, //!< The store queue reached its drain threshold.
        BatchFull, //!< The batch reached kMaxWriteBatch staged writes.
        TraceEnd,  //!< End of trace / end of run drains the tail.
    };

    /**
     * Arms the former for a run: discards anything staged; counters
     * persist across runs.
     */
    void reset() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= kMaxWriteBatch; }

    /**
     * Stages one write (copied — the trace buffer may be overwritten
     * before the flush) and returns its slot index within the current
     * batch. The former must not be full.
     */
    std::size_t stage(LineAddr addr, const Line &data, Time now);

    /**
     * Issue time of staged slot @p slot. Slot data stays readable
     * after flush() until stage() overwrites it, which lets callers
     * resolve store-queue completion times from the responses.
     */
    Time slotNow(std::size_t slot) const { return slots_[slot].now; }

    /**
     * Address of staged slot @p slot; same post-flush lifetime as
     * slotNow(), which lets telemetry attribute flushed writes to
     * their tenants from the response array.
     */
    LineAddr slotAddr(std::size_t slot) const
    {
        return slots_[slot].addr;
    }

    /**
     * Hands every staged write to @p controller.writeBatch() in stage
     * order, filling results[0..size), and counts the flush under
     * @p reason. Empty formers
     * return 0 without touching the controller or the counters.
     * @return the number of writes flushed.
     */
    std::size_t flush(MemController &controller, CtrlWriteResult *results,
                      FlushReason reason);

    /** @{ Flush-reason accounting (non-empty flushes only). */
    std::uint64_t flushesOnRead() const { return flushRead_.value(); }
    std::uint64_t flushesOnQueueFull() const
    {
        return flushQueueFull_.value();
    }
    std::uint64_t flushesOnBatchFull() const
    {
        return flushBatchFull_.value();
    }
    std::uint64_t flushesOnTraceEnd() const
    {
        return flushTraceEnd_.value();
    }
    std::uint64_t flushes() const;
    std::uint64_t writesStaged() const { return writesStaged_.value(); }
    /** @} */

    /**
     * Registers the flush-reason counters under @p scope (canonically
     * "core.batch"). Host-side accounting only: none of these carry
     * legacy StatSet names, so result signatures are untouched.
     */
    void registerMetrics(obs::MetricRegistry::Scope scope) const;

  private:
    struct Slot
    {
        LineAddr addr = 0;
        Time now = 0;
        Line data;
    };

    std::array<Slot, kMaxWriteBatch> slots_;
    /** The hand-off array; a flush fills only its first size_ entries. */
    std::array<CtrlWriteRequest, kMaxWriteBatch> requests_;
    std::size_t size_ = 0;

    Counter flushRead_;
    Counter flushQueueFull_;
    Counter flushBatchFull_;
    Counter flushTraceEnd_;
    Counter writesStaged_;
};

} // namespace dewrite

#endif // DEWRITE_CPU_BATCH_FORMER_HH
