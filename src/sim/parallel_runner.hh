/**
 * @file
 * Deterministic parallel experiment runner.
 *
 * Every figure bench replays the same ~20-application catalog through
 * runApp one (app, scheme) cell at a time; the cells are mutually
 * independent — each owns its own System, trace generators, and
 * appSeed-derived RNG — so they fan out across a work-stealing thread
 * pool with results byte-identical to a serial loop:
 *
 *  - results land in pre-assigned slots of a caller-visible vector,
 *    indexed by cell, so completion order never shows;
 *  - no cell touches shared mutable state (the only shared inputs —
 *    the app catalog, CRC/AES tables — are immutable after startup);
 *  - seeds derive from cell identity, never from execution order.
 *
 * Thread count comes from DEWRITE_THREADS (validated like
 * DEWRITE_EVENTS) or std::thread::hardware_concurrency(); pass an
 * explicit count to pin it, e.g. the determinism tests sweep {1,2,8}.
 */

#ifndef DEWRITE_SIM_PARALLEL_RUNNER_HH
#define DEWRITE_SIM_PARALLEL_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/experiment.hh"

namespace dewrite {

namespace obs {
class JsonWriter;
} // namespace obs

/**
 * Worker count used when none is pinned: DEWRITE_THREADS if set
 * (rejecting malformed values), else hardware concurrency, at least 1.
 */
unsigned runnerThreads();

/** Host-side timing of one fan-out cell. */
struct CellProfile
{
    double queueSeconds = 0.0; //!< Submit-to-start wait in the pool.
    double wallSeconds = 0.0;  //!< Body execution wall time.
    int worker = -1;           //!< Pool worker that ran it (-1 = none).
};

/**
 * Where the host time of one parallel fan-out went: total wall time,
 * per-cell execution/queue-wait, and per-worker busy time. Filled by
 * every parallelFor / runMatrix fan-out; benches attach it to their
 * BENCH_*.json output so regressions in runner scaling are visible
 * without a profiler.
 */
struct RunnerProfile
{
    unsigned threads = 1;
    double wallSeconds = 0.0;
    std::vector<CellProfile> cells;
    std::vector<double> workerBusySeconds; //!< Indexed by worker.

    /** Sum of all cells' execution time. */
    double busySeconds() const;

    /** busySeconds over threads * wallSeconds, in [0, 1]. */
    double utilization() const;

    /** Longest single cell's execution time. */
    double maxCellSeconds() const;

    /** Emits the profile as one JSON object on @p w. */
    void writeJson(obs::JsonWriter &w) const;
};

/**
 * Runs body(0) .. body(count - 1) across @p threads workers (0 =
 * runnerThreads()) and blocks until all complete. The first exception
 * a body throws is rethrown here after the fan-out drains.
 *
 * Always profiles — two clock reads per cell, outside the bodies, so
 * results are unaffected — and returns the per-cell and per-worker
 * host timing; callers that do not report it drop it.
 */
RunnerProfile parallelFor(std::size_t count,
                          const std::function<void(std::size_t)> &body,
                          unsigned threads = 0);

/**
 * Simulates every (app, scheme) cell of the matrix in parallel with
 * the shared defaults (appSeed, experimentEvents unless @p max_events
 * is nonzero). Results are row-major: result[a * schemes.size() + s]
 * is apps[a] under schemes[s], exactly what the equivalent serial
 * runApp loop produces. The fan-out's RunnerProfile lands in
 * @p profile when it is non-null.
 */
std::vector<ExperimentResult>
runMatrix(const std::vector<AppProfile> &apps,
          const std::vector<SchemeOptions> &schemes,
          const SystemConfig &config, std::uint64_t max_events = 0,
          unsigned threads = 0, RunnerProfile *profile = nullptr);

} // namespace dewrite

#endif // DEWRITE_SIM_PARALLEL_RUNNER_HH
