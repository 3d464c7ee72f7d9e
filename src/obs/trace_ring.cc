/**
 * @file
 * WriteTracer implementation.
 */

#include "obs/trace_ring.hh"

#include "common/logging.hh"

namespace dewrite::obs {

const char *
writePathName(WritePath path)
{
    switch (path) {
      case WritePath::Direct:
        return "direct";
      case WritePath::Parallel:
        return "parallel";
    }
    panic("bad write path");
}

const char *
counterHomeName(CounterHome home)
{
    switch (home) {
      case CounterHome::None:
        return "none";
      case CounterHome::Mapping:
        return "mapping";
      case CounterHome::InvertedHash:
        return "inverted-hash";
      case CounterHome::Overflow:
        return "overflow";
    }
    panic("bad counter home");
}

WriteTracer::WriteTracer(const TraceConfig &config)
    : ring_(config.capacity),
      epochEvents_(config.epochEvents ? config.epochEvents : 1)
{
}

void
WriteTracer::record(const WriteEvent &event)
{
    WriteEvent stamped = event;
    stamped.seq = recorded_++;

    if (!ring_.empty()) {
        ring_[head_] = stamped;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        if (held_ < ring_.size())
            ++held_;
    }

    ++current_.events;
    if (stamped.duplicate)
        ++current_.duplicates;
    if (stamped.predictedDup >= 0) {
        ++current_.predictions;
        if ((stamped.predictedDup != 0) == stamped.duplicate)
            ++current_.correctPredictions;
    }
    if (stamped.home == CounterHome::Overflow)
        ++current_.overflows;

    if (current_.events == epochEvents_) {
        // dewrite-analyze: allow(hot-path-purity) once per epoch (thousands of events), not per event
        epochs_.push_back(current_);
        current_ = EpochSnapshot{};
        current_.epoch = epochs_.size();
    }
}

const WriteEvent &
WriteTracer::event(std::size_t i) const
{
    if (i >= held_)
        panic("trace event index %zu out of range (%zu held)", i, held_);
    // head_ points one past the newest; the oldest retained event sits
    // at head_ when the ring has wrapped, at 0 otherwise.
    const std::size_t base = held_ == ring_.size() ? head_ : 0;
    std::size_t pos = base + i;
    if (pos >= ring_.size())
        pos -= ring_.size();
    return ring_[pos];
}

} // namespace dewrite::obs
