/**
 * @file
 * The trace-driven in-order core model (the gem5 CPU substitute).
 *
 * Executes non-memory instructions at one per cycle and stalls on every
 * memory event. Reads stall because the core is in-order; writes stall
 * because this is *persistent* memory — consistency requires ordered
 * cache-line flushes and fences, so a write's full latency lands on the
 * critical path (Section III, the premise of the whole paper). IPC is
 * therefore directly sensitive to the write latency each controller
 * scheme achieves.
 */

#ifndef DEWRITE_CPU_CORE_MODEL_HH
#define DEWRITE_CPU_CORE_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/timing.hh"
#include "common/types.hh"
#include "cpu/batch_former.hh"

namespace dewrite {

class TraceSource;
struct MemEvent;

namespace obs {
class ShardTelemetry;
} // namespace obs

/** Aggregate outcome of one simulation run. */
struct RunResult
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t writesEliminated = 0;

    double ipc = 0.0;
    double avgWriteLatencyNs = 0.0;
    double avgReadLatencyNs = 0.0;

    /** Filled by System::run: device + controller energy, pJ. */
    Energy totalEnergy = 0;
    std::uint64_t nvmLineWrites = 0; //!< Device writes incl. metadata.
    std::uint64_t nvmLineReads = 0;
    std::uint64_t bitsProgrammed = 0; //!< Data cells programmed.
};

class CoreModel
{
  public:
    /** Copies @p timing: a core may outlive the config that built it. */
    explicit CoreModel(const TimingConfig &timing);

    /**
     * Drives @p controller with up to @p max_events events from
     * @p trace and returns the core-side accounting (memory-side
     * fields are zero; System::run completes them).
     */
    RunResult run(TraceSource &trace, MemController &controller,
                  std::uint64_t max_events);

    /**
     * Multi-core replay: each trace drives one core with its own local
     * clock; the next event issued is always the globally earliest, so
     * requests from different cores overlap at the controller and
     * contend for banks — the condition under which eliminating writes
     * also accelerates reads (Section I). @p max_events bounds the
     * total across cores; cycles are the slowest core's, instructions
     * sum over cores (so IPC is aggregate, up to one per core).
     *
     * Pull order: every core's first event is pulled up front, and a
     * core's next event is pulled right after the previous one issues.
     * Each run starts from a fresh clock.
     */
    RunResult runMulti(const std::vector<TraceSource *> &traces,
                       MemController &controller,
                       std::uint64_t max_events);

    /**
     * @{
     * Push mode: one core (core 0) fed events in arbitrary-sized
     * chunks, carrying its clock, store queue and half-formed write
     * batch across feed() boundaries — the service's per-shard loop.
     * Every flush is event-driven (a read, a full store queue, a full
     * batch, or finish()), never chunk-driven, so any chunking of a
     * sequence yields results bit-identical to run() over it.
     *
     * attach() binds the core to @p controller (driven exclusively)
     * and restarts it from a fresh clock.
     */
    void attach(MemController &controller);

    /** Feeds @p count events in order to core 0. */
    void feed(const MemEvent *events, std::size_t count);

    /**
     * Drains the staged tail and returns the accounting since
     * attach(), exactly as run() reports it. The core may keep being
     * fed afterwards; results are cumulative.
     */
    RunResult finish();
    /** @} */

    /**
     * Attaches per-shard telemetry (owned by the service, written only
     * from this core's drain task — the zero-sharing discipline).
     * Recording is pure host-side observation of latencies the core
     * computes anyway; it never feeds back into timing or results.
     * Null (the default) for System runs.
     */
    void setTelemetry(obs::ShardTelemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

    /**
     * Registers the batch former's flush-reason counters under
     * @p scope (the System passes "core"). Host-side accounting only;
     * simulated results carry no trace of it.
     */
    void registerMetrics(obs::MetricRegistry::Scope scope) const;

    /** The write-batch former (counters persist across runs). */
    const BatchFormer &former() const { return former_; }

  private:
    /**
     * One core's clock and persist store queue. Each ring entry is an
     * in-flight write's completion time; while the write sits in the
     * unflushed batch its entry is unresolved and staged_ points at
     * it from the write's batch slot.
     */
    struct CoreState
    {
        Time now = 0;
        std::size_t head = 0;     //!< Oldest in-flight write.
        std::size_t inFlight = 0; //!< Writes in the queue.
        std::vector<Time> queue;  //!< Ring of depth_ completion times.
    };

    /** Resets @p cores cores to a fresh clock behind @p controller. */
    void restart(MemController &controller, std::size_t cores);

    /** Issues @p event on @p core: the one per-event timing step. */
    void issue(CoreState &core, const MemEvent &event);

    /**
     * Flushes the staged batch and resolves the store-queue entry of
     * each flushed write, through staged_, to its completion time.
     */
    void flush(BatchFormer::FlushReason reason);

    const TimingConfig timing_;
    const std::size_t depth_; //!< Store-queue capacity, at least 1.
    BatchFormer former_;
    MemController *controller_ = nullptr;
    obs::ShardTelemetry *telemetry_ = nullptr;
    std::vector<CoreState> cores_;
    /** Core-side counters summed over cores; memory-side fields 0. */
    RunResult totals_;
    std::array<CtrlWriteResult, kMaxWriteBatch> responses_;
    /**
     * Store-queue entry of each batch slot's write. A ring entry is
     * reused only after the write in it has been flushed, so each
     * pointer stays valid until the flush that resolves it.
     */
    std::array<Time *, kMaxWriteBatch> staged_{};
};

} // namespace dewrite

#endif // DEWRITE_CPU_CORE_MODEL_HH
