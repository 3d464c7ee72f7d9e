/**
 * @file
 * BatchFormer implementation.
 */

#include "cpu/batch_former.hh"

#include "common/check.hh"

namespace dewrite {

std::size_t
BatchFormer::stage(LineAddr addr, const Line &data, Time now)
{
    DEWRITE_DCHECK(size_ < kMaxWriteBatch, "batch overflow");
    slots_[size_] = { addr, now, data };
    writesStaged_.increment();
    return size_++;
}

std::size_t
BatchFormer::flush(MemController &controller, CtrlWriteResult *results,
                   FlushReason reason)
{
    if (size_ == 0)
        return 0;
    for (std::size_t i = 0; i < size_; ++i)
        requests_[i] = { slots_[i].addr, &slots_[i].data, slots_[i].now };
    controller.writeBatch(requests_.data(), results, size_);

    switch (reason) {
      case FlushReason::Read:
        flushRead_.increment();
        break;
      case FlushReason::QueueFull:
        flushQueueFull_.increment();
        break;
      case FlushReason::BatchFull:
        flushBatchFull_.increment();
        break;
      case FlushReason::TraceEnd:
        flushTraceEnd_.increment();
        break;
    }

    const std::size_t flushed = size_;
    size_ = 0;
    return flushed;
}

std::uint64_t
BatchFormer::flushes() const
{
    return flushRead_.value() + flushQueueFull_.value() +
           flushBatchFull_.value() + flushTraceEnd_.value();
}

void
BatchFormer::registerMetrics(obs::MetricRegistry::Scope scope) const
{
    scope.counter("writes_staged", writesStaged_,
                  "writes staged into the batch former");
    scope.counter("flush_read", flushRead_,
                  "batches flushed because a read must observe them");
    scope.counter("flush_queue_full", flushQueueFull_,
                  "batches flushed by a full store queue");
    scope.counter("flush_batch_full", flushBatchFull_,
                  "batches flushed at kMaxWriteBatch staged writes");
    scope.counter("flush_trace_end", flushTraceEnd_,
                  "batch tails drained at end of trace");
}

} // namespace dewrite
